"""Byte-exact command line output.

Each case pins the sha256 of stdout for one invocation, so any change
to how a value is rendered (fractions, run vectors, missing values,
booleans, field order) shows up as a digest mismatch.  The cases cover
every subcommand in each output format, including unknots, links, a
word with a leading "-", knots without a table name, and bound ranges
on both sides of the exact ceiling, up to c=200.

After a deliberate output change, print the new digests with

    PYTHONPATH=src python tests/test_golden_output.py
"""

import hashlib
import io
import sys
import warnings
from contextlib import redirect_stdout

import pytest

from twobridge import cli

FORMATS = ("human", "json", "csv")

# argv without --format; every entry runs once per format, with the
# option right after the subcommand so that it precedes any "--"
CASES = (
    "analyze +--+-+-",
    "analyze +++",
    "analyze +-",
    "analyze -- -++-+-+",
    "census 7",
    "census 7 --per-word",
    "bound 5..9 --exact-ceiling 7",
    "bound 16..17",
    "bound 17..100",
    "enumerate 7",
    "classes 8",
    "sample 8 6 5",
    "sample 10 12 42",
)

DIGESTS = {
    'analyze --format human +--+-+-': '9042dc5eb1936ed724444ea4ed54c84a1a07090997b1cfbe09207a0daeae762c',
    'analyze --format json +--+-+-': 'df43b14536a450f6dcbde6ba3e32f60f0a55d8b67efd2f5c5d83332ddc028453',
    'analyze --format csv +--+-+-': '124738dbff3d6db0181e652ba668dacd7bc5ce36e2215d39dc9d3ca1d588107e',
    'analyze --format human +++': 'fcc438dfc9a44ed334b50466ca17c50e31fba8d2de7ffb6390c3301349344f82',
    'analyze --format json +++': '677e3d7e4e9b7382403f44cd2469f57a385f6cf291b546e9f1c63c0e55f2e5a1',
    'analyze --format csv +++': '54488753ce60b22d85ae2b689edb48defe8de034ab95166d909c3fe159122ab1',
    'analyze --format human +-': 'c3f5b9133b501abada40b4e50b75e372fda8ec25a656c49397bb1066cf0dd554',
    'analyze --format json +-': 'b73fba6a55e26f3a4e7a30b710c48c0e63953d607cacb06a921bf8357669af08',
    'analyze --format csv +-': 'f850a7d4207779de8b71c71dc39eeafde52ba961dbad5202b6b623ac3d59a6b0',
    'analyze --format human -- -++-+-+': '9042dc5eb1936ed724444ea4ed54c84a1a07090997b1cfbe09207a0daeae762c',
    'analyze --format json -- -++-+-+': 'df43b14536a450f6dcbde6ba3e32f60f0a55d8b67efd2f5c5d83332ddc028453',
    'analyze --format csv -- -++-+-+': '124738dbff3d6db0181e652ba668dacd7bc5ce36e2215d39dc9d3ca1d588107e',
    'census --format human 7': '25bdccac5b88b727118dde1c2a755593a57305388b544476ab6a01a551f248f0',
    'census --format json 7': 'bbc33b4becdc74509aa3cd52279f72adbdc690aa8092841cc5c243a7ab1fd353',
    'census --format csv 7': 'de16ddf97b06100e542bd861a7dd3b55ad467e93c87b130346d671c8b78ff19a',
    'census --format human 7 --per-word': 'e775f2e9141ac6bcc267cdf95eaaf6977329bb7dc70cdd701e518061a3b5061d',
    'census --format json 7 --per-word': '66a18454093738d0bafd2ab7135062b6bc6eee25598b5a2a7356459bac33c34b',
    'census --format csv 7 --per-word': 'f45c7f203d5e7c31c1616fa36bb56745f26e3b72fad4f14de5aef547b38f2b0c',
    'bound --format human 5..9 --exact-ceiling 7': '622b67275de8c5981f4591de4bee5cb11f31ba1f18c8cb56a87308a5933627c2',
    'bound --format json 5..9 --exact-ceiling 7': 'a4ac562e770cbab79c381312093cfd14cd6a27a65348f255f68d94a2d652370b',
    'bound --format csv 5..9 --exact-ceiling 7': 'e6408d56c2a91afb7d1e8ad80e11232f178de6281f424e6adde99b5f883c2190',
    'bound --format human 16..17': 'f8e98a19bd365292200927fffae310f9f26e5440c3baba064b18133a74f95604',
    'bound --format json 16..17': 'caac2b4dedfdceca17f34b2b1cd9f45c208d188af8ec42f923f7dbc81d1bb589',
    'bound --format csv 16..17': '6f4c166389660c8b8ed6777196666154c1ceeeab0744d948ffc5eb4d57cb51bb',
    'bound --format human 17..100': '7f6033bb4152c6f24f1324fa986f58cc74e13ad8400c1f8bb6fe2c6c3ed08d75',
    'bound --format json 17..100': 'b2324c60b715a9fb2b6867190b35f261b9238134ade408524998a8fe0a64e69c',
    'bound --format csv 17..100': '6f75402ace29c5035ef29e83d63bc00ee94091e9b51b36cbcff7225545595542',
    'enumerate --format human 7': '99dd5ab1e5e7325c1298ec9dcc9a41ae21374dc04a8b7205685726d2cbffccdb',
    'enumerate --format json 7': '8f353fd5d50dbee21336152854911947a7ca2cbeb2affcc660f4460c867bd148',
    'enumerate --format csv 7': 'ca2c3c25c94179bd6ac16b264e7a193a4b1bf4a5b8447968f0f1eb4a44ca81f8',
    'classes --format human 8': 'c34c1c123d519463c9b72d2f52413f5e4e367949c30361f64500c9dd83ae93c2',
    'classes --format json 8': '71f869b940063ef4662f14d9fc5dc210728a721ea28ea124ddaa4691c57fb180',
    'classes --format csv 8': '2cf7d5c7e2ee47b27b7492d7f9e41b776b455c74ae162033914459cf38d84210',
    'sample --format human 8 6 5': '8d7c270577566be9bdfd186c406a1f6307eb6307074a67b3c861d0ab861f6d63',
    'sample --format json 8 6 5': '1f5d38b72b7889b4e0308f1197bbd368a022258ec850ad51af43fab6059b3279',
    'sample --format csv 8 6 5': '41e111ab36a1ed5815edb1c9af020f216bcc82d06befe443c30a8cdf8052b499',
    'sample --format human 10 12 42': '0190ab547e25f87acddf17f9e120ab4b755190b7c8155ebcf3ef66a3296156e8',
    'sample --format json 10 12 42': '54e305a6350149b0ebb4b30c35d3d6bebed7eb39a14d94c37b308d250e3f277d',
    'sample --format csv 10 12 42': 'd1eed6a5c611b2bf7ddbd178ff93adc097afb9b2c1d54421c5e83722048ce9c8',
    'check 6': '29a8c055d33a94b448d58957306ce76edc1df395eb458b8628339ea5ccdb4e47',
    'bound --format json 3..200 --exact-ceiling 3': 'ff75bbc23f2a7457ad85587745243a69517bfc3992ed1c701b8b8e08bfa82dc3',
}


def _invocations():
    for case in CASES:
        command, _, rest = case.partition(" ")
        for fmt in FORMATS:
            yield f"{command} --format {fmt} {rest}"
    yield "check 6"
    yield "bound --format json 3..200 --exact-ceiling 3"


def stdout_digest(command):
    """Exit code and stdout sha256 of one in-process CLI run."""
    out = io.StringIO()
    with redirect_stdout(out), warnings.catch_warnings():
        # sample warns on stderr when every closure is a link
        warnings.simplefilter("ignore")
        code = cli.main(command.split())
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("command", list(_invocations()))
def test_stdout_digest(command):
    assert stdout_digest(command) == (0, DIGESTS[command])


if __name__ == "__main__":
    for command in _invocations():
        code, digest = stdout_digest(command)
        if code != 0:
            sys.exit(f"{command}: exit {code}")
        print(f"    {command!r}: {digest!r},")
