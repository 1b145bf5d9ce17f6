"""Per-cluster physical-register free lists (§2.1).

"Each cluster has a free pool of physical registers from where they are
allocated when needed."
"""

from __future__ import annotations

from collections import deque
from typing import Optional

__all__ = ["FreeList"]


class FreeList:
    """FIFO free pool over physical register ids
    ``base .. base+capacity-1``.

    A banked register file gives each bank its own pool with its own
    *base*, so the ids a pool hands out are already the scoreboard's.
    """

    def __init__(self, capacity: int, base: int = 0) -> None:
        if capacity <= 0:
            raise ValueError("free list capacity must be positive")
        self.capacity = capacity
        self._free = deque(range(base, base + capacity))
        self._allocated = [False] * (base + capacity)

    def __len__(self) -> int:
        return len(self._free)

    @property
    def available(self) -> int:
        """Number of currently free registers."""
        return len(self._free)

    def alloc(self) -> Optional[int]:
        """Pop a free register id, or ``None`` when the pool is empty."""
        if not self._free:
            return None
        preg = self._free.popleft()
        self._allocated[preg] = True
        return preg

    def free(self, preg: int) -> None:
        """Return *preg* to the pool (double-free is an error)."""
        if not self._allocated[preg]:
            raise ValueError(f"double free of physical register {preg}")
        self._allocated[preg] = False
        self._free.append(preg)

    def is_allocated(self, preg: int) -> bool:
        """True while *preg* is checked out."""
        return self._allocated[preg]
