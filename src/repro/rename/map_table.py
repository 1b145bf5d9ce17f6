"""The N-field register map table of §2.1 / Figure 1.

One entry per logical register with one field per cluster; a valid field
points at the physical register holding (or about to hold) that logical
register's value in that cluster.  Writing a new destination validates
exactly the producing cluster's field and invalidates the rest; replicas
created by copy instructions validate additional fields; the full
previous mapping set (original + replicas) is freed when the *next*
writer of the logical register commits.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional

__all__ = ["MapTable"]


class MapTable:
    """Rename map with ``n_clusters`` fields per logical register.

    The state is flat, indexed by logical register: ``_map`` holds each
    register's row of per-cluster physical registers, and ``_mapped`` /
    ``_mapped_sets`` hold the clusters with a valid field as an
    ascending list and as a frozenset.  The decode stage reads all
    three for every source operand, so they are always current: a
    define installs the shared one-cluster views of its cluster, and
    only a replica, which is rarer, builds new ones.
    """

    def __init__(self, n_logical: int, n_clusters: int) -> None:
        if n_logical <= 0 or n_clusters <= 0:
            raise ValueError("map table dimensions must be positive")
        self.n_logical = n_logical
        self.n_clusters = n_clusters
        self._map: List[List[Optional[int]]] = [
            [None] * n_clusters for _ in range(n_logical)]
        self._single = [[c] for c in range(n_clusters)]
        self._single_sets = [frozenset((c,)) for c in range(n_clusters)]
        self._mapped: List[List[int]] = [[] for _ in range(n_logical)]
        self._mapped_sets: List[FrozenSet[int]] = (
            [frozenset()] * n_logical)

    # -- queries --------------------------------------------------------------

    def get(self, logical: int, cluster: int) -> Optional[int]:
        """Physical register of *logical* in *cluster*, or ``None``."""
        return self._map[logical][cluster]

    def is_mapped(self, logical: int, cluster: int) -> bool:
        """True when the (logical, cluster) field is valid."""
        return self._map[logical][cluster] is not None

    def mapped_clusters(self, logical: int) -> List[int]:
        """Clusters where *logical* currently has a valid mapping, in
        ascending order (a shared list — treat it as read-only)."""
        return self._mapped[logical]

    def mapped_set(self, logical: int) -> FrozenSet[int]:
        """:meth:`mapped_clusters` as a frozenset (steering views)."""
        return self._mapped_sets[logical]

    # -- updates --------------------------------------------------------------

    def define(self, logical: int, cluster: int,
               preg: int) -> List[Optional[int]]:
        """Install a new destination mapping.

        Validates field *cluster* with *preg*, invalidates every other
        field, and returns the replaced row: per cluster, the physical
        register the renamer must free when this writer commits, or
        ``None`` (Figure 1(c) semantics).
        """
        row = [None] * self.n_clusters
        row[cluster] = preg
        previous = self._map[logical]
        self._map[logical] = row
        self._mapped[logical] = self._single[cluster]
        self._mapped_sets[logical] = self._single_sets[cluster]
        return previous

    def add_replica(self, logical: int, cluster: int, preg: int) -> None:
        """Validate an additional field for a copy-created replica."""
        row = self._map[logical]
        if row[cluster] is not None:
            raise ValueError(
                f"logical r{logical} already mapped in cluster {cluster}")
        row[cluster] = preg
        mapped = [c for c, field in enumerate(row) if field is not None]
        self._mapped[logical] = mapped
        self._mapped_sets[logical] = frozenset(mapped)

    def live_pregs(self, cluster: int) -> List[int]:
        """Physical registers of *cluster* referenced by valid fields."""
        return [row[cluster] for row in self._map
                if row[cluster] is not None]
