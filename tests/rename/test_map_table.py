"""Unit tests for the N-field map table (Figure 1 semantics)."""

import pytest

from repro.rename import MapTable


def test_initially_unmapped():
    table = MapTable(4, 2)
    assert not table.is_mapped(0, 0)
    assert table.mapped_clusters(0) == []
    assert table.get(0, 1) is None


def test_define_validates_one_field():
    table = MapTable(4, 4)
    previous = table.define(1, 2, 17)
    assert previous == [None, None, None, None]   # the replaced row
    assert table.mapped_clusters(1) == [2]
    assert table.mapped_set(1) == frozenset({2})
    assert table.get(1, 2) == 17


def test_replica_adds_field():
    table = MapTable(4, 4)
    table.define(1, 0, 5)
    table.add_replica(1, 3, 9)
    assert table.mapped_clusters(1) == [0, 3]
    assert table.mapped_set(1) == frozenset({0, 3})
    assert [table.get(1, c) for c in range(4)] == [5, None, None, 9]


def test_replica_conflict_raises():
    table = MapTable(4, 2)
    table.define(0, 1, 3)
    with pytest.raises(ValueError, match="already mapped"):
        table.add_replica(0, 1, 7)


def test_redefine_returns_full_previous_set_figure1c():
    """Figure 1(c): a new writer frees the original and every replica."""
    table = MapTable(4, 4)
    table.define(2, 0, 10)
    table.add_replica(2, 1, 11)
    table.add_replica(2, 3, 12)
    previous = table.define(2, 2, 20)
    assert previous == [10, 11, None, 12]
    assert table.mapped_clusters(2) == [2]


def test_define_shares_one_cluster_views():
    table = MapTable(4, 2)
    table.define(0, 1, 3)
    table.define(2, 1, 5)
    assert table.mapped_clusters(0) is table.mapped_clusters(2)
    assert table.mapped_set(0) is table.mapped_set(2)
    table.add_replica(2, 0, 6)   # a replica builds fresh views
    assert table.mapped_clusters(0) == [1]
    assert table.mapped_clusters(2) == [0, 1]


def test_logical_registers_independent():
    table = MapTable(3, 2)
    table.define(0, 0, 1)
    table.define(1, 1, 2)
    assert table.mapped_clusters(0) == [0]
    assert table.mapped_clusters(1) == [1]


def test_live_pregs_per_cluster():
    table = MapTable(4, 2)
    table.define(0, 0, 1)
    table.define(1, 0, 2)
    table.define(2, 1, 3)
    assert sorted(table.live_pregs(0)) == [1, 2]
    assert table.live_pregs(1) == [3]


def test_dimensions_validated():
    with pytest.raises(ValueError):
        MapTable(0, 2)
    with pytest.raises(ValueError):
        MapTable(4, 0)
