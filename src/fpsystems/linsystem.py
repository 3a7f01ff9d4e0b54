"""Linear systems over F_p and their solutions inside a finite point set.

A system is m equations in k vector variables x_1, ..., x_k ranging over
F_p^n, with scalar coefficients: sum_i a_{j,i} x_i = b_j for each row j
(b_j = 0 when the system is homogeneous).  The module validates the two
structural hypotheses used throughout (rows summing to zero, all m x m
coefficient minors nonsingular), streams every solution with entries in
a given point set exactly once, classifies solutions by distinctness and
span, and counts the extendable independent tuples that the subspace
deletion steps key on.  One pivot solver, ``_Completion``, does every
solve: enumeration, the supports of the extremal search and of the
interesting-tuple test, and the indicator tensor and partitioned bound
in ``slicerank`` are views over its walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import CapExceededError, DegenerateSystemError
from .fplinalg import (
    Subspace,
    _header_fields,
    _rref,
    check_prime,
    rank,
    read_lines,
    read_vector_file,
    reduce_coords,
    rref_with_pivots,
    write_lines,
)

# candidate tuples or assignments a count or deletion step scans at most
DEFAULT_WORK_CAP = 10**6
# completed last-position entries a solution walk keeps for reuse
_MEMO_CAP = 1 << 16


def _failing_minors(rows: Sequence[Sequence[int]], p: int) -> tuple[tuple[int, ...], ...]:
    """The column sets of the singular m x m minors of the m rows."""
    m, k = len(rows), len(rows[0])
    return tuple(cols for cols in combinations(range(k), m)
                 if len(rref_with_pivots([[r[j] for j in cols] for r in rows], p)[0]) != m)


@dataclass(frozen=True)
class SystemSpec:
    """An m x k coefficient matrix over F_p plus optional constant terms.

    The two hypothesis flags are computed at construction and never
    trusted from input: ``rows_sum_zero`` means every coefficient row
    sums to 0 mod p (so constant tuples solve the homogeneous system),
    and ``generic_minors`` means every m x m minor of the coefficient
    matrix is nonsingular.
    """

    p: int
    m: int
    k: int
    coeffs: tuple[tuple[int, ...], ...]
    constants: tuple[tuple[int, ...], ...] | None
    rows_sum_zero: bool
    generic_minors: bool

    @classmethod
    def make(cls, coeffs: Sequence[Sequence[int]], p, constants=None) -> "SystemSpec":
        p = check_prime(p)
        rows = tuple(reduce_coords(r, p) for r in coeffs)
        m = len(rows)
        if m < 1:
            raise ValueError("a system needs at least one equation")
        k = len(rows[0])
        if any(len(r) != k for r in rows):
            raise ValueError("coefficient rows have unequal lengths")
        if k < 2:
            raise ValueError("a system needs at least two variables")
        consts = None
        if constants is not None:
            consts = tuple(reduce_coords(b, p) for b in constants)
            if len(consts) != m:
                raise ValueError("need one constant vector per equation")
            if len({len(b) for b in consts}) > 1:
                raise ValueError("constant vectors have mixed dimensions")
        rows_sum_zero = all(sum(r) % p == 0 for r in rows)
        generic = m <= k and not _failing_minors(rows, p)
        return cls(p, m, k, rows, consts, rows_sum_zero, generic)

    @property
    def homogeneous(self) -> bool:
        return self.constants is None

    def constant_rows(self, n: int) -> tuple[tuple[int, ...], ...]:
        """The m constant vectors in F_p^n, zeros for a homogeneous system."""
        if self.constants is None:
            return tuple((0,) * n for _ in range(self.m))
        if any(len(b) != n for b in self.constants):
            raise ValueError("constants do not match the ambient dimension")
        return self.constants


@dataclass(frozen=True)
class ValidationReport:
    rows_sum_zero: bool
    generic_minors: bool
    row_sums: tuple[int, ...]
    failing_minors: tuple[tuple[int, ...], ...]

    @property
    def ok(self) -> bool:
        return self.rows_sum_zero and self.generic_minors


def validate(sys_spec: SystemSpec) -> ValidationReport:
    """Recheck both structural hypotheses, listing every failing minor."""
    row_sums = tuple(sum(r) % sys_spec.p for r in sys_spec.coeffs)
    failing = _failing_minors(sys_spec.coeffs, sys_spec.p)
    return ValidationReport(
        rows_sum_zero=not any(row_sums),
        generic_minors=sys_spec.m <= sys_spec.k and not failing,
        row_sums=row_sums,
        failing_minors=failing,
    )


def _solution_dim(sys_spec: SystemSpec, xs: Sequence[tuple[int, ...]]) -> int:
    """The common dimension of k reduced vectors, checked against the
    system's k."""
    if len(xs) != sys_spec.k:
        raise ValueError(f"expected {sys_spec.k} vectors, got {len(xs)}")
    dims = {len(x) for x in xs}
    if len(dims) != 1:
        raise ValueError("solution entries have mixed dimensions")
    return dims.pop()


def _solves(sys_spec: SystemSpec, xs: Sequence[tuple[int, ...]], n: int) -> bool:
    """Whether k reduced vectors in F_p^n, p the system's prime, satisfy
    every equation.  Nothing is checked here: the caller has checked the
    prime, the length k and the dimension n, since the sums zip rows
    with coordinate columns and would silently truncate."""
    p = sys_spec.p
    cols = tuple(zip(*xs))
    for row, target in zip(sys_spec.coeffs, sys_spec.constant_rows(n)):
        if tuple([sum(map(mul, row, col)) % p for col in cols]) != target:
            return False
    return True


def is_solution(sys_spec: SystemSpec, entries: Sequence) -> bool:
    """Whether the k vectors satisfy every equation of the system."""
    xs = [reduce_coords(x, sys_spec.p) for x in entries]
    return _solves(sys_spec, xs, _solution_dim(sys_spec, xs))


@dataclass(frozen=True)
class SolutionTuple:
    """A k-tuple of vectors solving a system, with its classification;
    the span dimension is ranked on first use."""

    entries: tuple[tuple[int, ...], ...]
    p: int
    distinct_count: int
    all_equal: bool

    @classmethod
    def create(cls, sys_spec: SystemSpec, entries: Sequence) -> "SolutionTuple":
        """Check that the entries solve the system, then classify them."""
        xs = tuple(reduce_coords(x, sys_spec.p) for x in entries)
        if not _solves(sys_spec, xs, _solution_dim(sys_spec, xs)):
            raise ValueError("entries do not solve the system")
        return cls._of(xs, sys_spec.p)

    @classmethod
    def _of(cls, entries: tuple[tuple[int, ...], ...], p: int) -> "SolutionTuple":
        distinct = len(set(entries))
        return cls(entries, p, distinct, distinct == 1)

    @cached_property
    def span_dim(self) -> int:
        return rank(self.entries, self.p)


_MODES = ("any", "not-all-equal", "distinct", "span-dim", "distinct-count")


@dataclass(frozen=True)
class ClassFilter:
    """A predicate on solution tuples, decided by ``admits_support``
    from the distinct entries alone, so a tuple and its support (as the
    extremal search keeps it) get the same answer.

    Modes: ``any`` admits everything; ``not-all-equal`` drops constant
    tuples; ``distinct`` requires all k entries pairwise distinct;
    ``span-dim`` requires span dimension >= r; ``distinct-count``
    requires at least ell distinct entries.
    """

    mode: str = "any"
    r: int | None = None
    ell: int | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown filter mode {self.mode!r}")
        if self.mode == "span-dim" and (self.r is None or self.r < 1):
            raise ValueError("span-dim filter needs r >= 1")
        if self.mode == "distinct-count" and (self.ell is None or self.ell < 1):
            raise ValueError("distinct-count filter needs ell >= 1")

    def admits(self, sol: SolutionTuple) -> bool:
        return self.admits_support(len(sol.entries), sol.distinct_count,
                                   sol.entries, sol.p)

    def admits_support(self, k: int, distinct: int, rows: Iterable,
                       p: int) -> bool:
        """The filter on a k-tuple over F_p with ``distinct`` distinct
        entries; ``rows`` yields those entries (repeats allowed) and is
        read only by ``span-dim``, at most once."""
        if self.mode == "any":
            return True
        if self.mode == "not-all-equal":
            return distinct > 1
        if self.mode == "distinct":
            return distinct == k
        if self.mode == "distinct-count":
            return distinct >= self.ell
        # the span dimension never exceeds the distinct count, so the
        # rank test runs only where it can succeed, and stops at the
        # r-th pivot
        if distinct < self.r:
            return False
        work = [[c % p for c in row] for row in rows]
        return len(_rref(work, len(work[0]), p, self.r)[1]) == self.r

    @classmethod
    def any(cls) -> "ClassFilter":
        return cls("any")

    @classmethod
    def not_all_equal(cls) -> "ClassFilter":
        return cls("not-all-equal")

    @classmethod
    def distinct(cls) -> "ClassFilter":
        return cls("distinct")

    @classmethod
    def span_at_least(cls, r: int) -> "ClassFilter":
        return cls("span-dim", r=r)

    @classmethod
    def distinct_at_least(cls, ell: int) -> "ClassFilter":
        return cls("distinct-count", ell=ell)


@dataclass(frozen=True)
class PointSet:
    """An ordered set of distinct points of F_p^n."""

    p: int
    n: int
    points: tuple[tuple[int, ...], ...]

    @classmethod
    def make(cls, points: Iterable, p, n: int | None = None) -> "PointSet":
        p = check_prime(p)
        seen = set()
        out = []
        for v in points:
            cs = reduce_coords(v, p)
            if cs not in seen:
                seen.add(cs)
                out.append(cs)
        if out:
            dims = {len(v) for v in out}
            if len(dims) != 1:
                raise ValueError("points have mixed dimensions")
            inferred = dims.pop()
            if n is not None and n != inferred:
                raise ValueError("points do not match the requested dimension")
            n = inferred
        elif n is None:
            raise ValueError("an empty point set needs an explicit dimension")
        return cls(p, n, tuple(out))

    @classmethod
    def full_space(cls, n: int, p, include_zero: bool = True) -> "PointSet":
        p = check_prime(p)
        if n < 0:
            raise ValueError("n must be nonnegative")
        pts = (v for v in product(range(p), repeat=n) if include_zero or any(v))
        return cls(p, n, tuple(pts))

    @classmethod
    def from_file(cls, src) -> "PointSet":
        p, n, vectors = read_vector_file(src)
        return cls.make(vectors, p, n)

    @cached_property
    def _members(self) -> dict:
        # each point maps to itself: the membership table of a solution walk
        return {v: v for v in self.points}

    def __contains__(self, v) -> bool:
        return reduce_coords(v, self.p) in self._members

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def restrict_to(self, subspace: Subspace) -> "PointSet":
        """The points lying in the subspace, order preserved."""
        return PointSet(self.p, self.n,
                        tuple(v for v in self.points if subspace.contains(v)))

    def without(self, removed: Iterable[tuple[int, ...]]) -> "PointSet":
        gone = set(removed)
        return PointSet(self.p, self.n,
                        tuple(v for v in self.points if v not in gone))


def _echelon(sys_spec: SystemSpec, pinned: Iterable[int] = (),
             extra: Sequence[Sequence[int]] | None = None) -> tuple[list[int], tuple, tuple]:
    """One reduced echelon form of the coefficient matrix, its columns
    in ``order`` (the unpinned ones, then the pinned ones) and row j of
    ``extra``, if given, appended to row j.  Returns the order, the
    reduced rows and the pivot columns as positions 0..k-1; raises
    DegenerateSystemError when fewer than m pivots fall among the
    coefficients."""
    pinned = set(pinned)
    order = [j for j in range(sys_spec.k) if j not in pinned] + sorted(pinned)
    rows = [[r[j] for j in order] + list(b)
            for r, b in zip(sys_spec.coeffs, extra or [()] * sys_spec.m)]
    reduced, pivots = rref_with_pivots(rows, sys_spec.p)
    if sum(c < sys_spec.k for c in pivots) < sys_spec.m:
        raise DegenerateSystemError("coefficient rank below the equation count")
    return order, reduced, tuple(order[c] for c in pivots)


def pivot_columns(sys_spec: SystemSpec, pinned: Iterable[int] = ()) -> tuple[int, ...]:
    """Lexicographically first m columns carrying a nonsingular m x m
    minor, trying the columns in ``pinned`` only after all the others;
    these are the echelon pivots of the reordered matrix, so they exist
    exactly when the system has rank m.  A pinned column is a pivot only
    when fewer than m of the other columns are independent."""
    return _echelon(sys_spec, pinned)[2]


def _check_same_prime(sys_spec: SystemSpec, points: PointSet) -> None:
    if points.p != sys_spec.p:
        raise ValueError("point set prime differs from system prime")


def enumerate_solutions(
    sys_spec: SystemSpec,
    points: PointSet,
    flt: ClassFilter | None = None,
    pinned: Mapping[int, Sequence[int]] | None = None,
) -> Iterator[SolutionTuple]:
    """Stream every solution with all entries in ``points``, exactly once.

    Positions in ``pinned`` are frozen to the given vectors.  The m
    pivot positions (see ``pivot_columns``) are solved from the others;
    a pinned pivot, taken only when fewer than m unpinned columns are
    independent, must solve to its given vector.  The remaining
    positions are free and range over the point set.  A solution
    is determined by its free coordinates and every free assignment
    yields at most one solution, so the iteration hits each solution
    exactly once and no dedup pass is needed.  Solutions come in the
    lexicographic order of their free entries, by position.
    """
    flt = flt or ClassFilter.any()
    p = sys_spec.p
    _check_same_prime(sys_spec, points)
    n = points.n
    pin: dict[int, tuple[int, ...]] = {}
    if pinned:
        for pos, vec in pinned.items():
            if not 0 <= pos < sys_spec.k:
                raise IndexError(f"pinned position {pos} out of range")
            cs = reduce_coords(vec, p)
            if len(cs) != n:
                raise ValueError("pinned vector dimension mismatch")
            pin[pos] = cs
    completion = _Completion(sys_spec, n, tuple(pin))
    # every point is its own label
    pool = points._members.items()
    tables = [points._members] * len(completion.open_pivots)
    head = completion.free[:-1]
    # positions of an end's labels: the last free one, then the open pivots
    tail = completion.free[-1:] + [completion.pivots[r]
                                   for r in completion.open_pivots]
    entries = [pin.get(j) for j in range(sys_spec.k)]
    for prefix, ends in completion.walk([pool] * len(completion.free),
                                        tables, tuple(pin.values())):
        for j, (x, _) in zip(head, prefix):
            entries[j] = x
        for end in ends:
            for j, x in zip(tail, end):
                entries[j] = x
            sol = SolutionTuple._of(tuple(entries), p)
            if flt.admits(sol):
                yield sol


class _Completion:
    """Solutions of the system with the entries at some positions given:
    the one pivot solver behind enumeration, supports and the
    partitioned bound.

    The m pivot positions are solved from the others: pivot r holds
    const_r + sum_j w_rj * x_j over the non-pivot positions j.  The
    pivots avoid the pinned positions as far as the other columns allow;
    when fewer than m of those are independent, the missing pivots are
    pinned positions, whose solved entries must equal the given points.
    The other positions are free, in increasing order.  Pivots, constants
    and weights all come from one reduced echelon form of the
    coefficients beside the constant terms (see ``_echelon``).
    """

    def __init__(self, sys_spec: SystemSpec, n: int, pinned: Sequence[int] = ()):
        p, k = sys_spec.p, sys_spec.k
        self.p, self.pinned = p, tuple(pinned)
        # reduced row r of [A | B] reads x_pivot_r + sum_j a_rj x_j = b_r
        # over the non-pivot positions j: const_r = b_r, w_rj = -a_rj
        order, reduced, self.pivots = _echelon(
            sys_spec, self.pinned, sys_spec.constant_rows(n))
        # (pivot row, index into the pinned points) of each pinned pivot
        self.pinned_pivots = [(r, self.pinned.index(j))
                              for r, j in enumerate(self.pivots) if j in self.pinned]
        self.open_pivots = [r for r, j in enumerate(self.pivots)
                            if j not in self.pinned]
        self.free = [j for j in range(k)
                     if j not in self.pivots and j not in self.pinned]
        self.const = [row[k:] for row in reduced]
        self.weights = {j: [-row[c] % p for row in reduced]
                        for c, j in enumerate(order) if j not in self.pivots}

    def walk(self, pools: Sequence[Sequence[tuple]], tables: Sequence[Mapping],
             pins: Sequence[tuple[int, ...]] = ()) -> Iterator[tuple[tuple, list]]:
        """Every solution whose pinned entries are ``pins``, whose entry
        at the free position ``free[i]`` comes from ``pools[i]`` (an
        iterable of (point, label) pairs) and whose entry at the open
        pivot ``pivots[open_pivots[i]]`` is a key of ``tables[i]``.

        Yields (prefix, ends) for each choice of the entries at all free
        positions but the last, in lexicographic pool order: prefix is
        that choice as pairs, and ends lists, in pool order, the tuple
        (label of the last free entry, table value of each open pivot)
        of each choice of the last free entry that completes a solution
        (no last label when there is no free position).
        """
        p, weights = self.p, self.weights
        consts = self.const
        for j, x in zip(self.pinned, pins):
            if j in weights:
                consts = [tuple([c + w * v for c, v in zip(const, x)])
                          for const, w in zip(consts, weights[j])]
        head = [weights[j] for j in self.free[:-1]]
        last_weights = weights[self.free[-1]] if self.free else None
        *head_pools, last_pool = pools or [[(None, None)]]
        # the entries solved from the last free position depend on the
        # others only through the partial sums, which repeat, so each
        # distinct partial is completed once (up to a bounded store)
        memo: dict = {}
        stored = 0
        for prefix in product(*head_pools):
            partial = consts
            for ws, (x, _) in zip(head, prefix):
                partial = [[a + w * c for a, c in zip(base, x)]
                           for base, w in zip(partial, ws)]
            key = tuple([tuple([a % p for a in base]) for base in partial])
            ends = memo.get(key)
            if ends is None:
                ends = self._ends(key, last_weights, last_pool, tables, pins)
                if stored < _MEMO_CAP:
                    memo[key] = ends
                    stored += len(ends) + 1
            yield prefix, ends

    def _ends(self, partial, last_weights, pool, tables, pins) -> list[tuple]:
        if last_weights is None:
            # no free position: the pivots are solved outright
            if any(partial[r] != pins[i] for r, i in self.pinned_pivots):
                return []
            labels = [table.get(partial[r])
                      for r, table in zip(self.open_pivots, tables)]
            return [] if None in labels else [tuple(labels)]
        p, out = self.p, []
        # (base, weight, pinned point) per pinned pivot and (base,
        # weight, table) per open pivot: pivot r solves to
        # base + weight * x for the last free entry x
        fixed = [(partial[r], last_weights[r], pins[i])
                 for r, i in self.pinned_pivots]
        solved = [(partial[r], last_weights[r], table)
                  for r, table in zip(self.open_pivots, tables)]
        for x, label in pool:
            for base, w, want in fixed:
                if tuple([(a + w * c) % p for a, c in zip(base, x)]) != want:
                    break
            else:
                labels = [label]
                for base, w, table in solved:
                    value = table.get(tuple([(a + w * c) % p
                                             for a, c in zip(base, x)]))
                    if value is None:
                        break
                    labels.append(value)
                else:
                    out.append(tuple(labels))
        return out

    def supports(self, bits: dict,
                 pins: Sequence[tuple[int, ...]] = ()) -> Iterator[int]:
        """The support, as an OR of ``bits`` values, of the entries off
        the pinned positions of every solution whose pinned entries are
        ``pins`` and whose other entries are keys of ``bits`` (the pool,
        in its order); once per solution."""
        tables = [bits] * len(self.open_pivots)
        for prefix, ends in self.walk([bits.items()] * len(self.free), tables, pins):
            mask = 0
            for _, bit in prefix:
                mask |= bit
            for end in ends:
                support = mask
                for bit in end:
                    support |= bit
                yield support


def _interesting_positions(sys_spec: SystemSpec, index_set: Sequence[int],
                           ell: int) -> tuple[int, ...]:
    m, k = sys_spec.m, sys_spec.k
    idx = tuple(sorted(set(index_set)))
    if len(idx) != m + 1:
        raise ValueError(f"need an index set and tuple of size m + 1 = {m + 1}")
    if any(not 0 <= i < k for i in idx):
        raise IndexError("index set out of range")
    if not 1 <= ell <= k:
        raise ValueError(f"ell must lie in 1..{k}")
    return idx


def interesting_tuples(
    sys_spec: SystemSpec,
    points: PointSet,
    index_sets: Sequence[Sequence[int]],
    ell: int,
    tuples: Iterable[Sequence[tuple[int, ...]]],
) -> list:
    """The interesting tuples among ``tuples`` (see ``is_interesting``),
    grouped by index set in ``index_sets`` order, candidate order kept
    within each group.  Each tuple must hold m + 1 members of ``points``
    as reduced coordinate tuples, and is checked and rank-tested once
    for all index sets; each index set's completion is built once.  The
    rank test stops once no index set can hold an interesting tuple."""
    _check_same_prime(sys_spec, points)
    m, p = sys_spec.m, sys_spec.p
    positions = [_interesting_positions(sys_spec, idx, ell) for idx in index_sets]
    need = max(0, ell - m - 1)
    members = points._members
    live = None
    groups: list[list] = [[] for _ in positions]
    for xs in tuples:
        if len(xs) != m + 1:
            raise ValueError(f"need an index set and tuple of size m + 1 = {m + 1}")
        if any(x not in members for x in xs):
            raise ValueError("tuple entries must belong to the point set")
        if live == [] or len(rref_with_pivots(xs, p)[0]) != m + 1:
            continue
        if live is None:
            # built at the first independent tuple, as dependent tuples
            # never need one.  On a homogeneous system a pinned pivot
            # with no free position solves to a combination of the other
            # pins, so no independent tuple extends on that index set.
            completions = [_Completion(sys_spec, points.n, idx) for idx in positions]
            live = [(c, group) for c, group in zip(completions, groups)
                    if not (sys_spec.homogeneous and c.pinned_pivots and not c.free)]
            bits = {v: 1 << i for i, v in enumerate(points.points)}
        for completion, group in live:
            if any(support.bit_count() >= need
                   for support in completion.supports(bits, xs)):
                group.append(xs)
    return [xs for group in groups for xs in group]


def is_interesting(
    sys_spec: SystemSpec,
    points: PointSet,
    index_set: Sequence[int],
    tuple_entries: Sequence,
    ell: int,
) -> bool:
    """Whether an (m+1)-tuple on the positions ``index_set`` is linearly
    independent and extends to a full solution in the point set with at
    least ell - m - 1 distinct vectors among the completed positions."""
    if len(tuple_entries) != sys_spec.m + 1:
        raise ValueError(
            f"need an index set and tuple of size m + 1 = {sys_spec.m + 1}")
    xs = [reduce_coords(x, sys_spec.p) for x in tuple_entries]
    return bool(interesting_tuples(sys_spec, points, [index_set], ell, [xs]))


@dataclass(frozen=True)
class InterestingCountReport:
    index_set: tuple[int, ...]
    ell: int
    count: int
    bound: int
    holds: bool


def count_interesting_tuples(
    sys_spec: SystemSpec, points: PointSet, index_set: Sequence[int], ell: int,
) -> InterestingCountReport:
    """Exact count of interesting tuples on ``index_set``, against the
    k^2 * p^(m n) ceiling.  Raises CapExceededError, before any work,
    when the |A|^(m+1) candidate tuples exceed ``DEFAULT_WORK_CAP``."""
    m = sys_spec.m
    idx = _interesting_positions(sys_spec, index_set, ell)
    work = len(points) ** (m + 1)
    if work > DEFAULT_WORK_CAP:
        raise CapExceededError(
            f"{work} candidate tuples exceed the cap {DEFAULT_WORK_CAP}")
    count = len(interesting_tuples(sys_spec, points, [idx], ell,
                                   product(points.points, repeat=m + 1)))
    bound = sys_spec.k**2 * sys_spec.p ** (m * points.n)
    return InterestingCountReport(idx, ell, count, bound, count <= bound)


def write_system_file(dest, sys_spec: SystemSpec) -> None:
    """Write a system: header ``p=<p> m=<m> k=<k>``, m coefficient rows,
    then an optional ``b:`` block with one constant vector per row."""
    lines = [f"p={sys_spec.p} m={sys_spec.m} k={sys_spec.k}"]
    for row in sys_spec.coeffs:
        lines.append(" ".join(str(c) for c in row))
    if sys_spec.constants is not None:
        lines.append("b:")
        for b in sys_spec.constants:
            lines.append(" ".join(str(c) for c in b))
    write_lines(dest, lines)


def read_system_file(src) -> SystemSpec:
    lines = read_lines(src, "system")
    fields = _header_fields(lines[0], ("p", "m", "k"))
    p, m, k = fields["p"], fields["m"], fields["k"]
    if len(lines) < 1 + m:
        raise ValueError("system file is missing coefficient rows")
    coeffs = []
    for ln in lines[1:1 + m]:
        row = [int(t) for t in ln.split()]
        if len(row) != k:
            raise ValueError(f"expected {k} coefficients per row: {ln!r}")
        coeffs.append(row)
    constants = None
    rest = lines[1 + m:]
    if rest:
        if rest[0] != "b:":
            raise ValueError(f"unexpected trailing content {rest[0]!r}")
        if len(rest) != 1 + m:
            raise ValueError("constant block needs one vector per equation")
        constants = [[int(t) for t in ln.split()] for ln in rest[1:]]
    return SystemSpec.make(coeffs, p, constants)
