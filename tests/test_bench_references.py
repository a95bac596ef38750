"""The benchmark's full-size `sample` outputs, rebuilt from the library.

bench/reference.json pins, for each of the 64 seeds the `sample` workload
draws from, the sha256 of its library records: 15 random 3,001-letter
words, each reduced, normalized and analyzed.  The tier-1 benchmark smoke
run covers only 301-letter words, so this rebuilds every full-size digest
and pins every analysis field at that size.
"""

import hashlib
import json
from pathlib import Path

from twobridge import diagram, words

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"


def sample_digest(n, count, seed):
    # the digest bench/run.py's sample_summary takes of sample_job's records
    records = []
    for w in words.sample(n, count, seed):
        norm = words.normalize_to_model(w)
        a = diagram.analyze(norm.run_word) if norm.kind == words.MODEL else None
        records.append([w, norm.kind, None if a is None else a.to_json()])
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def test_full_sample_references_rebuild():
    refs = json.loads(REFERENCE.read_text())["full"]["sample"]
    assert sorted(refs, key=int) == [str(s) for s in range(64)]
    for seed, ref in refs.items():
        assert sample_digest(3001, 15, int(seed)) == ref["lib"], seed
