"""Smoke test of tools/verify_sweep.py: the first cycle of its schedule."""

from tools.verify_sweep import SCHEDULE, sweep_one


def test_first_cycle_colors_every_graph():
    assert len(SCHEDULE) == 31
    failures = []
    for i, family in enumerate(SCHEDULE):
        # star chains are left out: drawing one vets each piece by brute
        # force and takes seconds, while the other 30 slots take about 2 s
        if family != "star_chain":
            _, n, _, failure = sweep_one(1, i)
            if failure:
                failures.append((i, family, n, failure))
    assert failures == []
