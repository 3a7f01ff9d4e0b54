"""Deterministic seed derivation.

A single master seed drives every randomized component.  Per-component
seeds are expanded from it with splitmix64 steps, folding in a component
label byte by byte, so streams for different components (or different
trial indices) are decorrelated while staying reproducible.  Built-in
``hash`` is never used: it is salted per process.
"""

from __future__ import annotations

import random
from typing import Callable

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(x: int) -> int:
    # splitmix64 output function
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def _fold(x: int, label: int | str) -> int:
    if isinstance(label, str):
        for byte in label.encode("utf-8"):
            x = _mix((x + _GOLDEN + byte) & _MASK)
        return x
    return _mix((x + _GOLDEN + (label & _MASK)) & _MASK)


def derive_seed(master: int, *labels: int | str) -> int:
    """Derive a 64-bit seed from a master seed and a label path."""
    x = (master & _MASK) + _GOLDEN & _MASK
    x = _mix(x)
    for label in labels:
        x = _fold(x, label)
    return x


def spawn(master: int, *labels: int | str) -> random.Random:
    """A fresh random.Random seeded by derive_seed(master, *labels)."""
    return random.Random(derive_seed(master, *labels))


def spawner(master: int, *labels: int | str) -> Callable[[int | str], random.Random]:
    """``spawn(master, *labels, last)`` as a function of the last label,
    with the common prefix folded once; for per-trial streams.

    Every call reseeds one and the same generator and returns it, so
    each call invalidates the generator returned before it.  The reseed
    is the base generator's C ``seed`` followed by clearing
    ``gauss_next``, which is all that ``random.Random.seed`` does with
    an int, so the state is that of a fresh ``spawn`` without the
    Python-level wrapper; seeding a kept generator skips building a new
    one."""
    prefix = derive_seed(master, *labels)
    rng = random.Random(prefix)
    seed = super(random.Random, rng).seed

    def reseeded(last: int | str) -> random.Random:
        seed(_fold(prefix, last))
        rng.gauss_next = None
        return rng
    return reseeded
