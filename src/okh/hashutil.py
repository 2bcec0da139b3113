"""Small deterministic hash helpers used for ids and cache keys."""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

import numpy as np

_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a over raw bytes."""
    h = _FNV64_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV64_PRIME) & _MASK64
    return h


def fnv1a64_many(payloads: Sequence[bytes]) -> list[int]:
    """`fnv1a64` of every payload, computed one byte column at a time.

    The payloads are padded into an (n, width) uint8 array with the longest
    first, so the rows still live at column j are a prefix. uint64 array
    arithmetic wraps mod 2**64, which is the mask of the scalar loop, so every
    value is exact. The fixed cost per column makes this slower than
    `fnv1a64` for a single payload.
    """
    count = len(payloads)
    if count == 0:
        return []
    lengths = np.fromiter(map(len, payloads), dtype=np.int64, count=count)
    order = np.argsort(-lengths, kind="stable")
    ranked = lengths[order]
    width = int(ranked[0])
    # Each row is padded with zero bytes to the width; a padding byte is
    # never hashed, since only the live prefix of a column is read.
    padded = np.frombuffer(
        b"".join([payloads[i].ljust(width, b"\0") for i in order.tolist()]), dtype=np.uint8
    ).reshape(count, width)
    columns_major = np.ascontiguousarray(padded.T)
    # live[j]: rows whose payload is longer than j, a prefix of the ranking.
    live = np.searchsorted(-ranked, -np.arange(width), side="left")
    state = np.full(count, _FNV64_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV64_PRIME)
    for column, rows in zip(columns_major, live.tolist()):
        head = state[:rows]
        head ^= column[:rows]
        head *= prime
    hashes = np.empty(count, dtype=np.uint64)
    hashes[order] = state
    return hashes.tolist()


def content_key(text: str) -> bytes:
    """16-byte digest keying an embedding cache record to its source text."""
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).digest()
