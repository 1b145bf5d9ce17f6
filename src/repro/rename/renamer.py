"""Rename unit: map table + free lists + Figure 1 lifecycle.

The cycle-level core drives this unit at decode: it pre-checks that
every allocation an instruction needs (destination register plus one
replica per remote source that requires a copy) can be satisfied, then
performs them.  Physical registers are freed when the next writer of
the same logical register commits, releasing the whole previous mapping
set (the original plus any replicas), exactly as §2.1 describes.

Like the paper's SimpleScalar substrate (and the Alpha it modelled),
physical registers come in separate **integer and floating-point banks**
of ``pregs_per_bank`` registers each per cluster (Table 1's "register
file sizes 128/80/56").  Bank is determined by the logical register:
ids below ``FP_BASE`` are integer.  Physical ids are bank-offset:
integer registers occupy ``[0, pregs_per_bank)`` and fp registers
``[pregs_per_bank, 2*pregs_per_bank)``, so one scoreboard per cluster
covers both banks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..isa.registers import FP_BASE, is_fp_reg
from .free_list import FreeList
from .map_table import MapTable

__all__ = ["RenameUnit"]

INT_BANK = 0
FP_BANK = 1


class RenameUnit:
    """Owns the map table and the per-cluster, per-bank free pools.

    At reset every logical register receives one valid mapping; the
    mappings are spread round-robin over the clusters so no single free
    pool starts depleted.  ``free_lists[cluster][bank]`` hands out
    bank-offset physical register ids directly, so :meth:`define_dest`
    and :meth:`release` (the timing core's once-per-instruction calls)
    index a pool by bank without a lookup chain.
    """

    def __init__(self, n_logical: int, n_clusters: int,
                 pregs_per_bank: int) -> None:
        self.n_logical = n_logical
        self.n_clusters = n_clusters
        self.pregs_per_bank = pregs_per_bank
        self.map_table = MapTable(n_logical, n_clusters)
        self.free_lists: List[List[FreeList]] = [
            [FreeList(pregs_per_bank),
             FreeList(pregs_per_bank, base=pregs_per_bank)]
            for _ in range(n_clusters)]
        self._initial: List[Tuple[int, int, int]] = []
        for logical in range(n_logical):
            cluster = logical % n_clusters
            preg = self._alloc(logical, cluster)
            if preg is None:  # pragma: no cover - config validation prevents
                raise ValueError("register file too small for the initial "
                                 "architectural mapping")
            self.map_table.define(logical, cluster, preg)
            self._initial.append((logical, cluster, preg))

    # -- bank plumbing -----------------------------------------------------------

    @staticmethod
    def bank_of(logical: int) -> int:
        """INT_BANK or FP_BANK for a logical register id."""
        return FP_BANK if is_fp_reg(logical) else INT_BANK

    def _alloc(self, logical: int, cluster: int) -> Optional[int]:
        # Indexing by the bool is bank_of() without its calls.
        return self.free_lists[cluster][logical >= FP_BASE].alloc()

    # -- queries used by steering and decode ------------------------------------

    def initial_mappings(self) -> List[Tuple[int, int, int]]:
        """The reset-time (logical, cluster, preg) triples."""
        return list(self._initial)

    def free_count(self, cluster: int, bank: int) -> int:
        """Free physical registers remaining in one bank of *cluster*."""
        return self.free_lists[cluster][bank].available

    # -- allocations -------------------------------------------------------------

    def alloc_replica(self, logical: int, cluster: int) -> int:
        """Allocate the destination of a copy and validate its field.

        Callers must have verified :meth:`free_count`; an empty pool
        here is a core sequencing bug, not a simulated stall.
        """
        preg = self._alloc(logical, cluster)
        if preg is None:
            raise RuntimeError(
                f"alloc_replica on empty free list of cluster {cluster}; "
                f"the decode stage must pre-check free_count()")
        self.map_table.add_replica(logical, cluster, preg)
        return preg

    def define_dest(self, logical: int, cluster: int
                    ) -> Tuple[int, List[Optional[int]]]:
        """Allocate a destination register and install its mapping.

        Returns ``(preg, previous_row)``: the replaced map-table row,
        whose physical registers must be freed (:meth:`release`) when
        this instruction commits.
        """
        preg = self._alloc(logical, cluster)
        if preg is None:
            raise RuntimeError(
                f"define_dest on empty free list of cluster {cluster}; "
                f"the decode stage must pre-check free_count()")
        return preg, self.map_table.define(logical, cluster, preg)

    # -- commit-time release -------------------------------------------------------

    def release(self, row: List[Optional[int]],
                scoreboards: Optional[Sequence] = None) -> None:
        """Free a replaced row's registers at the writer's commit.

        *scoreboards*, when given, holds each cluster's register file;
        every freed register's scoreboard entry is cleared in the same
        pass.
        """
        free_lists = self.free_lists
        ppb = self.pregs_per_bank
        for cluster, preg in enumerate(row):
            if preg is not None:
                free_lists[cluster][preg >= ppb].free(preg)
                if scoreboards is not None:
                    scoreboards[cluster].clear(preg)

    # -- audits (tests) -------------------------------------------------------------

    def mapped_clusters(self, logical: int) -> List[int]:
        """Where *logical* currently has valid mappings (shared list —
        read-only)."""
        return self.map_table.mapped_clusters(logical)

    def mapping(self, logical: int, cluster: int) -> Optional[int]:
        """Physical register of *logical* in *cluster* (or ``None``)."""
        return self.map_table.get(logical, cluster)

    def allocated_counts(self) -> Dict[Tuple[int, int], int]:
        """Allocated register counts per (cluster, bank) for invariants."""
        return {(c, bank):
                self.pregs_per_bank - self.free_lists[c][bank].available
                for c in range(self.n_clusters) for bank in (0, 1)}
