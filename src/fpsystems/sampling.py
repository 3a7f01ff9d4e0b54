"""Random subspace sampling: containment probabilities, the two
deletion steps, and the counting bounds they rely on.

The probability that a uniformly random d-dimensional subspace of
F_p^n contains s fixed linearly independent vectors is exactly
prod_{i=0}^{s-1} (p^d - p^i) / (p^n - p^i), at most (p^d / p^n)^s.
Both values are kept as exact rationals.

A deletion step samples a subspace V, keeps the points of A inside V,
and removes at most one vector per offending structure found there, so
the surviving set provably contains none: offending structures are the
extendable independent tuples for the distinct-solutions step, and the
weight-w solutions for the weight step.  Offending structures are
processed in enumeration order, each deleting its lexicographically
smallest not-yet-deleted member; a structure whose members are all
gone already deletes nothing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterator, Mapping, Sequence

from .errors import CapExceededError
from .fplinalg import (
    check_prime,
    enumerate_subspaces,
    gaussian_binomial,
    random_subspace,
    reduce_coords,
)
from .linsystem import (
    DEFAULT_WORK_CAP,
    PointSet,
    SystemSpec,
    _check_same_prime,
    enumerate_solutions,
    interesting_tuples,
)
from .seeds import spawner
from .slicerank import ceiling
from .weights import weight

DEFAULT_ENUM_CAP = 10**5


@dataclass(frozen=True)
class ContainmentProbability:
    exact: Fraction
    upper: Fraction


def containment_probability(p, n: int, d: int, s: int) -> ContainmentProbability:
    """Probability that a uniform d-dimensional subspace of F_p^n
    contains s fixed independent vectors, with its (p^d / p^n)^s ceiling.

    Exact rational arithmetic throughout; the exact value is zero
    exactly when s > d.
    """
    p = check_prime(p)
    if not 0 <= d <= n:
        raise ValueError("need 0 <= d <= n")
    if s < 1:
        raise ValueError("need s >= 1")
    upper = Fraction(p**d, p**n) ** s
    if s > d:
        return ContainmentProbability(Fraction(0), upper)
    exact = Fraction(1)
    for i in range(s):
        exact *= Fraction(p**d - p**i, p**n - p**i)
    return ContainmentProbability(exact, upper)


@dataclass(frozen=True)
class ContainmentCheck:
    p: int
    n: int
    d: int
    s: int
    exact: Fraction
    upper: Fraction
    method: str
    trials: int
    hits: int
    frequency: float
    sigma: float
    within_3sigma: bool


def verify_containment(
    p,
    n: int,
    d: int,
    s: int,
    trials: int = 10**4,
    seed: int = 0,
    method: str = "auto",
) -> ContainmentCheck:
    """Compare the exact containment probability with observation.

    The s fixed vectors are the first s standard basis vectors (s <= n).
    Exhaustive mode scans every d-dimensional subspace and must match
    the exact value; Monte Carlo mode samples ``trials`` subspaces with
    per-trial generators derived from the seed (at most
    ``DEFAULT_WORK_CAP`` trials, else CapExceededError before any is
    run), and flags a frequency further than three binomial standard
    deviations from the mean; auto mode scans exhaustively up to
    ``DEFAULT_ENUM_CAP`` subspaces.
    A standard basis vector e_i lies in a subspace exactly when it is
    a row of the reduced echelon basis (its coordinates in that basis
    are its entries at the pivot columns), so that is the test.
    """
    p = check_prime(p)
    if s > n:
        raise ValueError("cannot fix more independent vectors than the dimension")
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    prob = containment_probability(p, n, d, s)
    basis = [tuple(1 if j == i else 0 for j in range(n)) for i in range(s)]
    if method not in ("auto", "exhaustive", "monte-carlo"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = ("exhaustive" if gaussian_binomial(n, d, p) <= DEFAULT_ENUM_CAP
                  else "monte-carlo")
    if method == "exhaustive":
        subspaces = enumerate_subspaces(n, d, p, cap=DEFAULT_ENUM_CAP)
        hits = sum(1 for v in subspaces if all(e in v.basis for e in basis))
        total = len(subspaces)
        freq = Fraction(hits, total)
        return ContainmentCheck(p, n, d, s, prob.exact, prob.upper, "exhaustive",
                                total, hits, float(freq), 0.0, freq == prob.exact)
    if trials < 1:
        raise ValueError("Monte Carlo needs at least one trial")
    if trials > DEFAULT_WORK_CAP:
        raise CapExceededError(f"{trials} trials exceed the cap {DEFAULT_WORK_CAP}")
    hits = 0
    trial_rng = spawner(seed, "containment")
    for i in range(trials):
        v = random_subspace(n, d, p, trial_rng(i))
        if all(e in v.basis for e in basis):
            hits += 1
    freq = hits / trials
    mean = float(prob.exact)
    sigma = math.sqrt(mean * (1 - mean) / trials)
    within = abs(freq - mean) <= 3 * sigma if sigma > 0 else freq == mean
    return ContainmentCheck(p, n, d, s, prob.exact, prob.upper, "monte-carlo",
                            trials, hits, freq, sigma, within)


def expected_intersection_size(set_size: int, n: int, d: int, p) -> Fraction:
    """Expected number of a fixed set of nonzero points falling in a
    uniform d-dimensional subspace: each lands with probability
    (p^d - 1) / (p^n - 1)."""
    p = check_prime(p)
    return Fraction(set_size) * Fraction(p**d - 1, p**n - 1)


@dataclass(frozen=True)
class SamplingStepReport:
    """Outcome of one deletion step.

    ``deleted`` counts offending structures found inside the sampled
    subspace (the surviving size is at least kept - deleted, since at
    most one vector is removed per structure)."""

    d: int
    kept: int
    deleted: int
    surviving: int
    survivors: PointSet
    removed: tuple[tuple[int, ...], ...]


def _delete_per_structure(structures: Sequence[Sequence[tuple[int, ...]]]) -> set:
    # structures in enumeration order, each losing its lexicographically
    # smallest not-yet-deleted member
    removed: set = set()
    for struct in structures:
        alive = set(struct) - removed
        if alive:
            removed.add(min(alive))
    return removed


def _weight_class(sys_spec: SystemSpec, points: PointSet, w: int,
                  pinned: Mapping | None = None) -> Iterator[tuple]:
    """(solution, weight report) for every solution of weight w with
    entries in ``points`` and the ``pinned`` entries, in enumeration
    order.  The point set is checked when called, not when iterated."""
    if (0,) * points.n in points:
        raise ValueError("weight machinery needs a point set without zero")
    return ((sol, rep)
            for sol in enumerate_solutions(sys_spec, points, pinned=pinned)
            for rep in [weight(sol.entries, sys_spec.p)] if rep.omega == w)


def sampling_step_distinct(
    sys_spec: SystemSpec,
    points: PointSet,
    ell: int,
    d: int,
    rng: random.Random,
    cap: int = DEFAULT_WORK_CAP,
) -> SamplingStepReport:
    """Sample a subspace and delete one vector per extendable
    independent tuple lying inside it.

    Offending structures are the (m+1)-position tuples from A that are
    interesting with respect to the full set A and lie entirely in the
    sampled subspace; the survivors contain none.
    """
    if not sys_spec.generic_minors:
        raise ValueError("deletion step expects a system with generic minors")
    _check_same_prime(sys_spec, points)
    m, k = sys_spec.m, sys_spec.k
    v = random_subspace(points.n, d, sys_spec.p, rng)
    inside = points.restrict_to(v)
    index_sets = list(combinations(range(k), m + 1))
    work = len(index_sets) * len(inside) ** (m + 1)
    if work > cap:
        raise CapExceededError(f"{work} candidate tuples exceed the cap {cap}")
    offending = interesting_tuples(sys_spec, points, index_sets, ell,
                                   product(inside.points, repeat=m + 1))
    removed = _delete_per_structure(offending)
    survivors = inside.without(removed)
    return SamplingStepReport(d, len(inside), len(offending), len(survivors),
                              survivors, tuple(sorted(removed)))


def sampling_step_weight(
    sys_spec: SystemSpec,
    points: PointSet,
    w: int,
    d: int,
    rng: random.Random,
    cap: int = DEFAULT_WORK_CAP,
) -> SamplingStepReport:
    """Sample a subspace and delete one vector per weight-w solution
    lying inside it."""
    _check_same_prime(sys_spec, points)
    v = random_subspace(points.n, d, sys_spec.p, rng)
    inside = points.restrict_to(v)
    # a subspace holds zero, so inside has zero exactly when points has
    stream = _weight_class(sys_spec, inside, w)
    work = len(inside) ** (sys_spec.k - sys_spec.m)
    if work > cap:
        raise CapExceededError(f"{work} assignments exceed the cap {cap}")
    offending = [sol.entries for sol, _ in stream]
    removed = _delete_per_structure(offending)
    survivors = inside.without(removed)
    return SamplingStepReport(d, len(inside), len(offending), len(survivors),
                              survivors, tuple(sorted(removed)))


@dataclass(frozen=True)
class WeightCountReport:
    w: int
    r: int
    count: int
    bound: float
    holds: bool
    dim_claims_ok: bool
    chosen_sizes_ok: bool


def count_weight_solutions(sys_spec: SystemSpec, points: PointSet, w: int, r: int) -> WeightCountReport:
    """Count solutions of weight w whose entries span dimension r, and
    compare with (2k)^(2k) p^(rk) Gamma^n |A|^(r-1).

    Gamma here is taken at k - floor(w / (k+1)) variable positions.
    Along the way every weight-w solution is checked for the structural
    claims: its chosen maximizer has floor(w / (k+1)) elements and its
    span dimension lies strictly above that, at most k.
    """
    solutions = _weight_class(sys_spec, points, w)
    k, m, p = sys_spec.k, sys_spec.m, sys_spec.p
    floor_w = w // (k + 1)
    if not floor_w + 1 <= r <= k:
        raise ValueError(f"need {floor_w + 1} <= r <= {k}")
    ceil = ceiling(p, m, k - floor_w, points.n,
                   factor=(2 * k) ** (2 * k) * p ** (r * k) * len(points) ** (r - 1))
    count = 0
    dim_ok = True
    sizes_ok = True
    for sol, rep in solutions:
        if len(rep.chosen) != floor_w:
            sizes_ok = False
        if not floor_w + 1 <= sol.span_dim <= k:
            dim_ok = False
        if sol.span_dim == r:
            count += 1
    return WeightCountReport(w, r, count, ceil.bound, ceil.holds(count), dim_ok, sizes_ok)


@dataclass(frozen=True)
class FamilyReport:
    family: tuple[tuple[tuple[int, ...], ...], ...]
    size: int
    bound: float
    holds: bool
    maximal_certified: bool


def max_disjoint_span_family(
    sys_spec: SystemSpec,
    points: PointSet,
    index_set: Sequence[int],
    fixed: Sequence,
    w: int,
) -> FamilyReport:
    """Greedily build a maximal family of weight-w solutions that agree
    with ``fixed`` on ``index_set`` and whose quotient-line sets are
    pairwise disjoint, then compare its size with k^(k+1) Gamma^n.

    Qualifying solutions have weight w with chosen maximizer exactly
    ``index_set``.  Their remaining entries span lines in the quotient
    by the span of the fixed entries; the family is grown in enumeration
    order, skipping any solution whose line set meets one already used,
    so by construction every qualifying solution left out shares a line
    with the family (re-verified before returning).
    """
    k, m, p = sys_spec.k, sys_spec.m, sys_spec.p
    idx = tuple(sorted(set(index_set)))
    if len(idx) != w // (k + 1):
        raise ValueError("index set size must equal floor(w / (k+1))")
    ceil = ceiling(p, m, k - len(idx), points.n, factor=k ** (k + 1))
    fixed_cs = [reduce_coords(x, p) for x in fixed]
    if len(fixed_cs) != len(idx):
        raise ValueError("need one fixed vector per index")
    if any(x not in points for x in fixed_cs):
        raise ValueError("fixed vectors must belong to the point set")
    # a qualifying solution's chosen maximizer is idx, so the quotient
    # lines of its weight report are those modulo the fixed entries' span
    qualifying = [(sol.entries, frozenset(rep.lines))
                  for sol, rep in _weight_class(sys_spec, points, w,
                                                dict(zip(idx, fixed_cs)))
                  if rep.chosen == idx]
    family = []
    used: set = set()
    for entries, lines in qualifying:
        if used & lines:
            continue
        family.append(entries)
        used |= lines
    maximal = all(entries in family or (lines & used)
                  for entries, lines in qualifying)
    return FamilyReport(tuple(family), len(family), ceil.bound,
                        ceil.holds(len(family)), maximal)


def proof_dimension_weight(p, gamma_value: float, n: int, k: int) -> int:
    """The unique d with p^d in (X/p, X] for
    X = (p / Gamma)^(n / (k-1)) / ((2k)^(2k+1) p^(2k)), the sampling
    dimension used with the weight deletion step (float based, and may
    be small or negative at desk scales)."""
    p = check_prime(p)
    if k < 2:
        raise ValueError("need k >= 2")
    x = (p / gamma_value) ** (n / (k - 1)) / ((2 * k) ** (2 * k + 1) * p ** (2 * k))
    d = math.floor(math.log(x, p))
    while p ** (d + 1) <= x:
        d += 1
    while p**d > x:
        d -= 1
    return d


def proof_dimension_distinct(n: int, m: int, c: float) -> int:
    """floor((1 - c) n / m), the sampling dimension used with the
    extendable-tuple deletion step at exponent parameter c."""
    if not 0 < c < 1:
        raise ValueError("need 0 < c < 1")
    return math.floor((1 - c) * n / m)
