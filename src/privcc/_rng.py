"""Deterministic random streams.

Every randomized routine in this package takes an explicit
``numpy.random.Generator``.  Streams are built on the Philox4x64
counter-based generator, which is keyed (not state-seeded): the key is the
pair ``(seed, stream_id)``, so independent substreams are derived without
any jump-ahead bookkeeping and the mapping from labels to streams is
portable across machines and languages that ship Philox4x64.  One
routine jumps: the merge's audit draws from ``jumped()`` of the stream it
is handed, so its draws leave that stream where it was.

Stream ids are folded from structured labels with 64-bit FNV-1a
(offset basis 0xcbf29ce484222325, prime 0x100000001b3), integers encoded
as 8 little-endian bytes and strings as UTF-8.
"""

from __future__ import annotations

import numpy as np

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def stream_id(*parts: int | str) -> int:
    """Fold label parts into a 64-bit stream id (FNV-1a)."""
    h = _FNV_OFFSET
    for part in parts:
        if isinstance(part, str):
            data = part.encode("utf-8")
        else:
            data = int(part).to_bytes(8, "little", signed=True)
        for byte in data:
            h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def make_rng(seed: int, *parts: int | str) -> np.random.Generator:
    """Generator for the substream labeled by ``parts`` under ``seed``."""
    key = np.array([int(seed) & _MASK64, stream_id(*parts)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
