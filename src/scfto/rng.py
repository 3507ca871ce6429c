"""Deterministic random stream derivation.

Every random draw in a simulation comes from a stream keyed by
(master seed, subsystem tag, node id, round index).  Streams are therefore
independent of iteration order and of how many draws other subsystems make,
so adding a metric or reordering bookkeeping cannot perturb the protocol.
A stream is opened only where a draw follows: seeding a Mersenne Twister
costs far more than drawing from it, and an unopened stream draws nothing.
"""
from __future__ import annotations

import random
from functools import lru_cache

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@lru_cache(maxsize=64)  # the program's stream tags, hashed once a process
def _tag_to_int(tag: str) -> int:
    # stable across processes, unlike hash()
    acc = 0xCBF29CE484222325
    for b in tag.encode("utf-8"):
        acc = _splitmix64(acc ^ b)
    return acc


def _key_to_int(key) -> int:
    if isinstance(key, int):
        return key & _MASK64
    if isinstance(key, str):
        return _tag_to_int(key)
    raise TypeError(f"unsupported stream key type: {type(key)!r}")


def _chain(state: int, keys) -> int:
    for key in keys:
        state = _splitmix64(state ^ _key_to_int(key))
    return state


def derive_seed(master_seed: int, *keys) -> int:
    """Mix the master seed with an arbitrary key tuple into a 64-bit seed."""
    return _chain(_splitmix64(master_seed & _MASK64), keys)


class StreamFactory:
    """Hands out independent `random.Random` streams for one master seed.

    `stream(s, n, r)` is seeded with `derive_seed(master_seed, s, n, r)`; the
    `(master_seed, s)` prefix of that chain is computed once per subsystem.
    """

    def __init__(self, master_seed: int):
        self.master_seed = master_seed & _MASK64
        self._prefixes: dict = {}  # subsystem -> derive_seed(master_seed, subsystem)

    def stream(self, subsystem: str, node: int = -1, round_idx: int = -1) -> random.Random:
        prefix = self._prefixes.get(subsystem)
        if prefix is None:
            prefix = self._prefixes[subsystem] = derive_seed(self.master_seed, subsystem)
        return random.Random(_chain(prefix, (node, round_idx)))
