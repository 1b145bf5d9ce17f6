"""Unit tests for the rename unit (banked free pools + Figure 1 flow)."""

import pytest

from repro.cluster.register_file import NEVER, RegisterFile
from repro.isa.registers import FP_BASE, NUM_LOGICAL_REGS
from repro.rename import RenameUnit
from repro.rename.renamer import FP_BANK, INT_BANK


def test_initial_mapping_covers_every_logical_register():
    unit = RenameUnit(NUM_LOGICAL_REGS, 4, 56)
    mapped = {logical for logical, _, _ in unit.initial_mappings()}
    assert mapped == set(range(NUM_LOGICAL_REGS))
    for logical in range(NUM_LOGICAL_REGS):
        assert unit.mapped_clusters(logical) == [logical % 4]


def test_banks_split_int_and_fp():
    unit = RenameUnit(NUM_LOGICAL_REGS, 2, 40)
    counts = unit.allocated_counts()
    # 32 int and 32 fp logical registers spread over 2 clusters.
    assert counts[(0, INT_BANK)] == 16
    assert counts[(1, INT_BANK)] == 16
    assert counts[(0, FP_BANK)] == 16
    assert counts[(1, FP_BANK)] == 16


def test_bank_of():
    assert RenameUnit.bank_of(0) == INT_BANK
    assert RenameUnit.bank_of(31) == INT_BANK
    assert RenameUnit.bank_of(FP_BASE) == FP_BANK


def test_fp_pregs_are_offset():
    unit = RenameUnit(NUM_LOGICAL_REGS, 1, 64)
    preg, _ = unit.define_dest(FP_BASE + 1, 0)
    assert preg >= 64          # fp bank ids live above the int bank
    ipreg, _ = unit.define_dest(1, 0)
    assert ipreg < 64


def test_define_dest_returns_previous_for_commit_free():
    unit = RenameUnit(NUM_LOGICAL_REGS, 2, 40)
    original = unit.mapping(3, 1)
    preg, previous = unit.define_dest(3, 0)
    assert previous == [None, original]
    assert unit.mapping(3, 0) == preg
    assert unit.mapping(3, 1) is None


def test_replica_then_redefine_then_release_roundtrip():
    unit = RenameUnit(NUM_LOGICAL_REGS, 2, 40)
    before = unit.free_count(0, INT_BANK) + unit.free_count(1, INT_BANK)
    replica = unit.alloc_replica(2, 1)
    assert unit.mapping(2, 1) == replica
    original = unit.mapping(2, 0)
    _, previous = unit.define_dest(2, 0)
    assert previous == [original, replica]
    unit.release(previous)
    after = unit.free_count(0, INT_BANK) + unit.free_count(1, INT_BANK)
    # The replica and the original were freed, the new dest was
    # allocated: one mapping before, one mapping after.
    assert after == before


def test_release_clears_scoreboards_of_freed_registers():
    unit = RenameUnit(NUM_LOGICAL_REGS, 2, 40)
    scoreboards = [RegisterFile(80), RegisterFile(80)]
    replica = unit.alloc_replica(2, 1)
    original = unit.mapping(2, 0)
    preg, previous = unit.define_dest(2, 0)
    for cluster, freed in ((0, original), (1, replica), (0, preg)):
        scoreboards[cluster].set_pending(freed, "producer")
    unit.release(previous, scoreboards)
    assert scoreboards[0].ready[original] == NEVER
    assert scoreboards[0].producer[original] is None
    assert scoreboards[1].producer[replica] is None
    # The new destination is not part of the released row.
    assert scoreboards[0].producer[preg] == "producer"


def test_free_count_decrements_per_bank():
    unit = RenameUnit(NUM_LOGICAL_REGS, 2, 40)
    before = unit.free_count(0, FP_BANK)
    unit.define_dest(FP_BASE + 4, 0)
    assert unit.free_count(0, FP_BANK) == before - 1
    assert unit.free_count(0, INT_BANK) == 40 - 16


def test_exhausted_pool_raises_runtime_error():
    unit = RenameUnit(NUM_LOGICAL_REGS, 1, 33)   # 32 int mappings + 1 free
    unit.define_dest(1, 0)
    with pytest.raises(RuntimeError, match="pre-check"):
        unit.define_dest(2, 0)


def test_too_small_register_file_rejected_at_reset():
    with pytest.raises(ValueError):
        RenameUnit(NUM_LOGICAL_REGS, 1, 16)   # cannot hold 32 per bank
