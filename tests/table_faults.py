"""Three faults planted in diagram's run automaton, for the tests that
must catch each: the H/V rule shifted, the viability test inverted, and
the crossing still pending at the end not counted.  Each step function
is diagram._step with one rule changed, and the table is rebuilt from it
through diagram._table.  A fourth fault swaps two entries of the
generator table, diagram.GENERATOR, which census and check must catch."""

from twobridge import diagram


def _hv_shifted(state, e, g):
    start, pending, adjacent = state
    after = (start + e) % 3
    if (start + 1) % 3 == e:
        return (after, pending, False), diagram.H, 0, 0
    viable = int(pending == g)
    return (after, g, True), diagram.V, viable, viable if adjacent else 0


def _viability_inverted(state, e, g):
    start, pending, adjacent = state
    after = (start + e) % 3
    if start == e:
        return (after, pending, False), diagram.H, 0, 0
    viable = int(pending is not None and pending != g)
    return (after, g, True), diagram.V, viable, viable if adjacent else 0


# fault -> (the failed check and where, as census 15 --format json names
# them on exit, the diagram attribute, its faulty value); analyze's own
# genus parity check fails on the first word it reads
FAULTS = {
    "hv-shifted": ("genus parity at s=9, c=15", "STEP", lambda: diagram._table(_hv_shifted)),
    "viability-inverted": ("genus parity at s=7, c=15", "STEP",
                           lambda: diagram._table(_viability_inverted)),
    "end-not-counted": ("genus parity at s=5, c=15", "ENDS_VIABLE",
                        lambda: (0,) * len(diagram.STATES)),
}


def _swapped_generator():
    # the odd row's two entries swapped: a run's generator follows its
    # length alone
    even, odd = diagram.GENERATOR
    return even, (None, odd[2], odd[1])


# generators(r) reads GENERATOR, so analyze, full_diagram and the planar
# oracle all see this fault, and census.scan_totals reads it too; the
# comparison with full_diagram is no check route for it.  analyze's knot
# fraction check fails on the first word it reads
ALL_FAULTS = {**FAULTS, "generator-swapped": ("knot fraction at word +-++-+-+-+-+-+-+",
                                              "GENERATOR", _swapped_generator)}


def plant(fault, setter=setattr):
    """Install one fault in the diagram module; a test passes
    monkeypatch.setattr so that the fault is undone after it."""
    _, name, value = ALL_FAULTS[fault]
    setter(diagram, name, value())
