"""Small independent checks over F_p, written without fpsystems.

The benchmark checks the program's answers with these, so none of them
may call into the package under test.  Every system here has one
equation (m = 1) whose last coefficient is nonzero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product


def rank(vectors, p: int) -> int:
    """Rank over F_p by plain elimination."""
    rows = [[c % p for c in v] for v in vectors]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        sel = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][col], -1, p)
        rows[r] = [c * inv % p for c in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def completions(coeffs, const, pool, p: int, n: int):
    """Every k-tuple from ``pool`` solving sum_i a_i x_i = b: the first
    k-1 entries range over the pool and the last is solved for."""
    *head, last = coeffs
    inv = pow(last, -1, p)
    members = set(pool)
    b = const or (0,) * n
    for xs in product(pool, repeat=len(head)):
        z = tuple((b[s] - sum(a * x[s] for a, x in zip(head, xs))) * inv % p
                  for s in range(n))
        if z in members:
            yield xs + (z,)


def solutions_nonzero(coeffs, p: int, n: int) -> list:
    """All solutions with entries in F_p^n minus zero, lexicographic."""
    pool = [v for v in product(range(p), repeat=n) if any(v)]
    return sorted(completions(coeffs, None, pool, p, n))


def admits(mode: str, arg, entries, p: int) -> bool:
    distinct = len(set(entries))
    if mode == "not-all-equal":
        return distinct > 1
    if mode == "distinct":
        return distinct == len(entries)
    if mode == "distinct-count":
        return distinct >= arg
    if mode == "span-dim":
        return rank(entries, p) >= arg
    return True


def avoids(coeffs, const, mode: str, arg, points, p: int, n: int) -> bool:
    """Whether no admitted solution has all entries in ``points``."""
    return not any(admits(mode, arg, t, p)
                   for t in completions(coeffs, const, list(points), p, n))


def containment_exact(p: int, n: int, d: int, s: int) -> Fraction:
    """Probability that a uniform d-subspace of F_p^n holds s fixed
    independent vectors: prod_i (p^d - p^i) / (p^n - p^i)."""
    out = Fraction(1)
    for i in range(s):
        out *= Fraction(p**d - p**i, p**n - p**i)
    return out


def within_sigmas(hits: int, trials: int, prob: Fraction, sigmas: float) -> bool:
    mean = trials * float(prob)
    sd = math.sqrt(trials * float(prob) * (1 - float(prob)))
    return abs(hits - mean) <= sigmas * sd


def ap3_offending(inside, full, p: int = 3):
    """Rescan for the deletion steps on x + y + z = 0 over F_3.

    Returns (distinct_structures, weight5_structures) among ``inside``:
    a pair (x, y) of rank 2 completes to z = -(x + y); for the distinct
    step it offends when z lies in the full set (one structure per index
    pair, so three per ordered pair), and for the weight step when z
    lies inside (such tuples have weight 5)."""
    inside_set = set(inside)
    distinct = weight5 = 0
    for x, y in product(inside, repeat=2):
        if rank([x, y], p) != 2:
            continue
        z = tuple((-(a + b)) % p for a, b in zip(x, y))
        if z in full:
            distinct += 3
        if z in inside_set:
            weight5 += 1
    return distinct, weight5
