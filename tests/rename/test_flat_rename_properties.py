"""Property tests for the flat rename state.

The map table keeps per-register rows plus always-current mapped-cluster
views, ``define`` returns the replaced row, and the timing core frees
that row with ``RenameUnit.release`` at commit.  A reference model that
keeps each register's mapping set as ``(cluster, preg)`` pairs runs
alongside random traffic.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.registers import NUM_LOGICAL_REGS, is_fp_reg
from repro.rename import RenameUnit

CLUSTERS = 4
PREGS = 40

_ops = st.lists(st.tuples(
    st.sampled_from(["define", "replica", "commit"]),
    st.integers(min_value=0, max_value=NUM_LOGICAL_REGS - 1),
    st.integers(min_value=0, max_value=CLUSTERS - 1)),
    min_size=1, max_size=150)


def _pairs(row):
    return [(c, preg) for c, preg in enumerate(row) if preg is not None]


def _check_state(unit, reference, in_flight):
    table = unit.map_table
    held = {(c, bank): 0 for c in range(CLUSTERS) for bank in (0, 1)}
    for logical in range(NUM_LOGICAL_REGS):
        row = table._map[logical]
        # The reference model's mapping set is exactly the row's.
        assert _pairs(row) == sorted(reference[logical].items())
        # The cached views equal the row's contents.
        clusters = [c for c, preg in enumerate(row) if preg is not None]
        assert table.mapped_clusters(logical) == clusters
        assert table.mapped_set(logical) == frozenset(clusters)
        for c, preg in _pairs(row):
            held[(c, preg >= PREGS)] += 1
    for _, expected in in_flight:
        for c, preg in expected:
            held[(c, preg >= PREGS)] += 1
    # Allocated (mapped or awaiting release) + free == capacity.
    for (c, bank), count in held.items():
        assert count + unit.free_count(c, bank) == PREGS


@settings(max_examples=60, deadline=None)
@given(ops=_ops)
def test_flat_rename_state_matches_pair_list_model(ops):
    unit = RenameUnit(NUM_LOGICAL_REGS, CLUSTERS, PREGS)
    reference = {logical: {cluster: preg}
                 for logical, cluster, preg in unit.initial_mappings()}
    in_flight = deque()   # (replaced row, its reference pairs), ROB order
    for kind, logical, cluster in ops:
        bank = int(is_fp_reg(logical))
        if kind == "commit":
            if in_flight:
                row, expected = in_flight.popleft()
                # Commit frees exactly the model's previous mapping set.
                assert _pairs(row) == expected
                unit.release(row)
        elif unit.free_count(cluster, bank) == 0:
            continue
        elif kind == "define":
            expected = sorted(reference[logical].items())
            preg, row = unit.define_dest(logical, cluster)
            assert _pairs(row) == expected
            reference[logical] = {cluster: preg}
            in_flight.append((row, expected))
        elif unit.mapping(logical, cluster) is None:
            reference[logical][cluster] = unit.alloc_replica(logical,
                                                             cluster)
        _check_state(unit, reference, in_flight)
    while in_flight:
        unit.release(in_flight.popleft()[0])
    _check_state(unit, reference, in_flight)
