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
from itertools import combinations, islice, product
from typing import Iterator, Mapping, Sequence

from .errors import _capped
from .fplinalg import (
    _draw_rows,
    _pivots,
    _subspace_count,
    check_prime,
    enumerate_subspaces,
    random_subspace,
    reduce_vectors,
)
from .linsystem import (
    DEFAULT_WORK_CAP,
    PointSet,
    SystemSpec,
    _check_same_prime,
    _check_walk_work,
    _interesting_tuples,
    enumerate_solutions,
)
from .seeds import spawner
from .slicerank import ceiling
from .weights import _check_k, _report, _tuple_shape, _weight_facts

DEFAULT_ENUM_CAP = 10**5
# entries (subspaces times d * n) an exhaustive containment scan lists
DEFAULT_ENUM_ENTRY_CAP = 10**7
# trials times d^2 * n, the elimination work of a Monte-Carlo check
DEFAULT_TRIAL_WORK_CAP = 4 * 10**7
# bits in the numerator or denominator of a containment probability
PROBABILITY_BIT_CAP = 2 * 10**5


@dataclass(frozen=True)
class ContainmentProbability:
    exact: Fraction
    upper: Fraction


def containment_probability(p, n: int, d: int, s: int) -> ContainmentProbability:
    """Probability that a uniform d-dimensional subspace of F_p^n
    contains s fixed independent vectors, with its (p^d / p^n)^s ceiling.

    Exact rational arithmetic throughout; the exact value is zero
    exactly when s > d.  Dividing p^i out of factor i leaves
    (p^(d-i) - 1) / (p^(n-i) - 1), and the factors p^j - 1 common to
    the numerator and the denominator cancel, so each keeps
    min(s, n - d) of them.  Both values then have at most
    min(s, n - d) * max(s, n) * ceil(log2 p) bits above and below;
    CapExceededError is raised before any arithmetic when that exceeds
    ``PROBABILITY_BIT_CAP``.
    """
    p = check_prime(p)
    if not 0 <= d <= n:
        raise ValueError("need 0 <= d <= n")
    if s < 1:
        raise ValueError("need s >= 1")
    _capped(min(s, n - d) * max(s, n) * (p - 1).bit_length(), PROBABILITY_BIT_CAP,
            "containment probability needs {} bits, over the cap {cap}")
    upper = Fraction(1, p ** ((n - d) * s))
    if s > d:
        return ContainmentProbability(Fraction(0), upper)
    num = den = 1
    for j in range(d - s + 1, min(d, n - s) + 1):
        num *= p**j - 1
    for j in range(max(d, n - s) + 1, n + 1):
        den *= p**j - 1
    return ContainmentProbability(Fraction(num, den), upper)


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
    the exact value.  A subspace contains e_1, ..., e_s exactly when
    they are the first s rows of its reduced echelon basis (the rows
    are ordered by pivot column), so that is its test.  It lists at most
    ``DEFAULT_ENUM_CAP`` subspaces and ``DEFAULT_ENUM_ENTRY_CAP``
    entries, else CapExceededError.  Auto mode scans exhaustively
    within those caps and samples otherwise.

    Monte Carlo mode samples ``trials`` subspaces, each from its own
    reseeding of one ``spawner`` generator, and flags a frequency
    further than three binomial standard deviations from the mean.  At
    most ``DEFAULT_WORK_CAP`` trials, and at most
    ``DEFAULT_TRIAL_WORK_CAP`` for trials * d^2 * n, are run; either
    cap, checked in that order, raises CapExceededError before any
    trial.  See ``_contains_first`` for what a trial decides.
    """
    p = check_prime(p)
    if s > n:
        raise ValueError("cannot fix more independent vectors than the dimension")
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    prob = containment_probability(p, n, d, s)
    if method not in ("auto", "exhaustive", "monte-carlo"):
        raise ValueError(f"unknown method {method!r}")
    total = _subspace_count(n, d, p, DEFAULT_ENUM_CAP)
    # an exhaustive scan is refused by its entry count; auto mode samples
    phrase = ("{} subspace entries exceed the cap {cap}"
              if method == "exhaustive" else None)
    listed = total is not None and _capped(
        total * d * n, DEFAULT_ENUM_ENTRY_CAP, phrase) is not None
    if method == "auto":
        method = "exhaustive" if listed else "monte-carlo"
    if method == "exhaustive":
        subspaces = enumerate_subspaces(n, d, p, cap=DEFAULT_ENUM_CAP)
        fixed = tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(s))
        hits = sum(v.basis[:s] == fixed for v in subspaces)
        total = len(subspaces)
        freq = Fraction(hits, total)
        return ContainmentCheck(p, n, d, s, prob.exact, prob.upper, "exhaustive",
                                total, hits, float(freq), 0.0, freq == prob.exact)
    if trials < 1:
        raise ValueError("Monte Carlo needs at least one trial")
    _capped(trials, DEFAULT_WORK_CAP, "{} trials exceed the cap {cap}")
    _capped(trials * d * d * n, DEFAULT_TRIAL_WORK_CAP,
            f"{trials} trials of {d} x {n} eliminations exceed the cap "
            f"{{cap}} on trials * d^2 * n")
    trial_rng = spawner(seed, "containment")
    # every trial draws from its own seed, and with s > d none can hit
    hits = 0
    if s <= d:
        order = _trial_order(n, s)
        for i in range(trials):
            hits += _contains_first(n, d, s, p, trial_rng(i).getrandbits, order)
    freq = hits / trials
    mean = float(prob.exact)
    sigma = math.sqrt(mean * (1 - mean) / trials)
    within = abs(freq - mean) <= 3 * sigma if sigma > 0 else freq == mean
    return ContainmentCheck(p, n, d, s, prob.exact, prob.upper, "monte-carlo",
                            trials, hits, freq, sigma, within)


def _trial_order(n: int, s: int) -> list[int]:
    """The columns s..n-1, 0..s-1: the order a containment trial
    eliminates them in."""
    return [*range(s, n), *range(s)]


def _contains_first(n: int, d: int, s: int, p: int, draw,
                    order: Sequence[int] | None = None) -> bool:
    """Whether the subspace ``random_subspace(n, d, p, rng)`` would
    return contains e_1, ..., e_s, when ``draw`` is ``rng.getrandbits``;
    the draws are the same, so the generator ends in the same state.

    A row space V contains span(e_1, ..., e_s) exactly when its
    projection onto coordinates s..n-1 (whose kernel is V meet that
    span) has dimension d - s.  So the drawn rows are eliminated in
    place over the columns in ``order``, ``_trial_order(n, s)`` by
    default, and the trial hits when d - s of the pivots are columns
    s..n-1, which come first.  One forward elimination decides the
    trial, and also whether a rank-deficient matrix must be redrawn."""
    if order is None:
        order = _trial_order(n, s)
    while True:
        pivots = _pivots(_draw_rows(n, d, p, draw), n, p, order=order)
        if len(pivots) == d:
            return sum(c >= s for c in pivots) == d - s


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


def _step_report(d: int, inside: PointSet,
                 offending: Sequence[Sequence[tuple[int, ...]]]) -> SamplingStepReport:
    """The report of a deletion step that found ``offending``, in
    enumeration order, among the points ``inside`` the sampled subspace."""
    removed = _delete_per_structure(offending)
    survivors = inside.without(removed)
    return SamplingStepReport(d, len(inside), len(offending), len(survivors),
                              survivors, tuple(sorted(removed)))


def _weight_class(sys_spec: SystemSpec, points: PointSet, w: int,
                  pinned: Mapping | None = None) -> Iterator[tuple]:
    """(solution, (omega, chosen, blocks)) for every solution of weight
    w with entries in ``points`` and the ``pinned`` entries, in
    enumeration order, weighed by relation shape alone; a caller that
    reads U or the lines completes a report with ``_report``.  The point
    set and k are checked at the call; enumerated entries are reduced,
    nonzero and in F_p^n, so each goes to the weight walk unchecked."""
    if (0,) * points.n in points:
        raise ValueError("weight machinery needs a point set without zero")
    _check_k(sys_spec.k)
    p = sys_spec.p
    return ((sol, shape)
            for sol in enumerate_solutions(sys_spec, points, pinned=pinned)
            for shape in [_tuple_shape(sol.entries, p)] if shape[0] == w)


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
    sampled subspace; the survivors contain none.  CapExceededError
    when the C(k, m+1) * |A ∩ V|^(m+1) candidate tuples exceed ``cap``,
    before any is tested, and once the completions their tests walk,
    with the walked prefixes that complete nothing, pass it.
    """
    if not sys_spec.generic_minors:
        raise ValueError("deletion step expects a system with generic minors")
    _check_same_prime(sys_spec, points)
    m, k = sys_spec.m, sys_spec.k
    v = random_subspace(points.n, d, sys_spec.p, rng)
    inside = points.restrict_to(v)
    _capped(math.comb(k, m + 1) * len(inside) ** (m + 1), cap,
            "{} candidate tuples exceed the cap {cap}")
    index_sets = combinations(range(k), m + 1)
    if not inside.points:
        # no tuple lies in V, so the C(k, m+1) index sets go unlisted and
        # the first one alone checks ell
        index_sets = islice(index_sets, 1)
    offending = _interesting_tuples(sys_spec, points, list(index_sets), ell,
                                    product(inside.points, repeat=m + 1), cap)
    return _step_report(d, inside, offending)


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
    _check_walk_work(sys_spec, inside, cap)
    return _step_report(d, inside, [sol.entries for sol, _ in stream])


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
    span dimension lies strictly above that, at most k.  Both are the
    weight facts of ``verify_weight_properties``, read off the weight
    walk with the span dimension: the rank of k vectors is at most k,
    and the range of r keeps w below k(k+1), where no weight is a
    multiple of k+1, so rank >= w / (k+1) is the strict bound.
    """
    solutions = _weight_class(sys_spec, points, w)
    k, m, p = sys_spec.k, sys_spec.m, sys_spec.p
    floor_w = w // (k + 1)
    if not floor_w + 1 <= r <= k:
        raise ValueError(f"need {floor_w + 1} <= r <= {k}")
    ceil = ceiling(p, m, k - floor_w, points.n,
                   factor=(2 * k) ** (2 * k) * p ** (r * k) * len(points) ** (r - 1))
    count, dim_ok, sizes_ok = 0, True, True
    for sol, shape in solutions:
        facts = _weight_facts(_report(sol.entries, points.n, p, shape), k, points.n, p)
        sizes_ok = sizes_ok and facts.size_valid
        dim_ok = dim_ok and facts.span_valid
        count += facts.span_dim == r
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
    fixed_cs = reduce_vectors(fixed, p)
    if len(fixed_cs) != len(idx):
        raise ValueError("need one fixed vector per index")
    if any(x not in points for x in fixed_cs):
        raise ValueError("fixed vectors must belong to the point set")
    # a qualifying solution's chosen maximizer is idx, so the quotient
    # lines of its weight report are those modulo the fixed entries' span
    qualifying = [(sol.entries, frozenset(_report(sol.entries, points.n, p, shape).lines))
                  for sol, shape in _weight_class(sys_spec, points, w, dict(zip(idx, fixed_cs)))
                  if shape[1] == idx]
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
