"""Word-addressable global memory backing store with a bump allocator.

Addresses are byte addresses; the store holds 4-byte words, so all
accesses must be 4-byte aligned. Values are Python ints wrapped to 32-bit
two's-complement, matching the GPU atomics the benchmarks rely on
(negative sentinel values such as the decentralized ticket lock's ``-1``
round-trip correctly).
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.errors import MemoryError_

WORD_BYTES = 4
_MASK32 = 0xFFFFFFFF


def wrap32(value: int) -> int:
    """Wrap an int to signed 32-bit two's complement."""
    value &= _MASK32
    if value >= 0x80000000:
        value -= 0x100000000
    return value


class BackingStore:
    """Global memory: a sparse word store plus a bump allocator."""

    def __init__(self, size_bytes: int = 1 << 30, base: int = 0x1000) -> None:
        self.size_bytes = size_bytes
        self._words: Dict[int, int] = {}
        self._brk = base
        self._base = base

    # -- allocation ------------------------------------------------------
    def alloc(self, nbytes: int, align: int = WORD_BYTES) -> int:
        """Bump-allocate ``nbytes``, aligned to ``align`` bytes."""
        if nbytes <= 0:
            raise MemoryError_(f"allocation size must be positive, got {nbytes}")
        if align <= 0 or (align & (align - 1)) != 0:
            raise MemoryError_(f"alignment must be a power of two, got {align}")
        addr = (self._brk + align - 1) & ~(align - 1)
        if addr + nbytes > self._base + self.size_bytes:
            raise MemoryError_("global memory exhausted")
        self._brk = addr + nbytes
        return addr

    # -- access ----------------------------------------------------------
    def _check(self, addr: int) -> None:
        if addr % WORD_BYTES != 0:
            raise MemoryError_(f"unaligned access at {addr:#x}")
        if addr < self._base or addr >= self._base + self.size_bytes:
            raise MemoryError_(f"access outside memory at {addr:#x}")

    def read(self, addr: int) -> int:
        self._check(addr)
        return self._words.get(addr, 0)

    def write(self, addr: int, value: int) -> None:
        self._check(addr)
        self._words[addr] = wrap32(value)

    def words(self) -> Iterator[Tuple[int, int]]:
        """Iterate over (address, value) pairs of touched words."""
        return iter(sorted(self._words.items()))
