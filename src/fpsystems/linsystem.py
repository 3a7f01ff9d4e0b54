"""Linear systems over F_p and their solutions inside a finite point set.

A system is m equations in k vector variables x_1, ..., x_k ranging over
F_p^n, with scalar coefficients: sum_i a_{j,i} x_i = b_j for each row j
(b_j = 0 when the system is homogeneous).  The module validates the two
structural hypotheses used throughout (rows summing to zero, all m x m
coefficient minors nonsingular), streams every solution with entries in
a given point set exactly once, classifies solutions by distinctness and
span, counts them, and counts the extendable independent tuples that
the subspace deletion steps key on.  One pivot solver, ``_Completion``,
does every solve: enumeration, the solution count, the supports of the
extremal search and its greedy checks, the interesting-tuple test, and
the indicator tensor and partitioned bound in ``slicerank`` are views
over its walk, the one loop that enumerates completions, each
completion built once per (system, n, pinned positions) by
``_completion``.  The search's walks take lower bounds per free
position (``_Completion._plan``), one solution per orbit of swaps at
equal weight columns, as they read supports alone; the others count
tuples, and take none.

The solver takes codes and gives labels.  Inside the walk a point of
F_p^n is its integer code, its base-p number with the first coordinate
most significant (``_PointCodes``): pools pair codes with labels (a
point's index, or a bit), lookup tables are indexed by code, each pivot
entry is read from a sum row and a scale row, and the walk yields labels
alone.  Points are coordinate tuples everywhere else: in the API, the
file formats and the CLI.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, combinations, product
from math import comb
from operator import itemgetter, mul
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DegenerateSystemError, _capped
from .fplinalg import (
    Subspace,
    _header_fields,
    check_prime,
    rank,
    read_lines,
    read_vector_file,
    reduce_coords,
    reduce_vectors,
    rref_with_pivots,
    write_lines,
)

# points of a full space, minors of a system, candidate tuples or
# assignments a count or deletion step scans, and the free assignments
# of the exhaustive search's support walk, counted before it starts,
# each at most
DEFAULT_WORK_CAP = 10**6
# completed last-position entries a solution walk keeps for reuse
_MEMO_CAP = 1 << 16
# entries of the sum table of F_p^n's point codes, p^n rows of p^n
# codes, and of a lookup table indexed by code.  A sum table within it
# has p^n <= 256, so every code in it is one of the interpreter's shared
# small ints.  On a 2-core Xeon, F_2^8's tables build in about 3 ms and
# F_2^10's 2^20 sum entries in 60 ms
_TABLE_CAP = 1 << 16


@dataclass(frozen=True)
class SystemSpec:
    """An m x k coefficient matrix over F_p plus optional constant terms.

    The two hypothesis flags are derived from the coefficients on first
    read and kept, never trusted from input: ``rows_sum_zero`` means
    every coefficient row sums to 0 mod p (so constant tuples solve the
    homogeneous system), and ``generic_minors`` means m <= k and every
    m x m minor of the coefficient matrix is nonsingular.  ``make``
    refuses a system with more than ``DEFAULT_WORK_CAP`` such minors,
    so the one scan of them stays bounded; it runs only when
    ``generic_minors`` or ``validate`` first needs it.
    """

    p: int
    m: int
    k: int
    coeffs: tuple[tuple[int, ...], ...]
    constants: tuple[tuple[int, ...], ...] | None
    # the facts behind the flags, set on first read; declared as fields
    # so that setting one keeps every instance's attribute layout, and
    # with it the interpreter's fast reads of the fields above
    _sums_zero: bool | None = field(default=None, init=False, repr=False, compare=False)
    _failing: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def make(cls, coeffs: Sequence[Sequence[int]], p, constants=None) -> "SystemSpec":
        p = check_prime(p)
        rows = reduce_vectors(coeffs, p)
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
            consts = reduce_vectors(constants, p)
            if len(consts) != m:
                raise ValueError("need one constant vector per equation")
            if len({len(b) for b in consts}) > 1:
                raise ValueError("constant vectors have mixed dimensions")
        _capped(comb(k, m), DEFAULT_WORK_CAP,
                "{} coefficient minors exceed the cap {cap}")
        return cls(p, m, k, rows, consts)

    @property
    def rows_sum_zero(self) -> bool:
        if self._sums_zero is None:
            object.__setattr__(self, "_sums_zero",
                               all(sum(r) % self.p == 0 for r in self.coeffs))
        return self._sums_zero

    @property
    def _failing_minors(self) -> tuple[tuple[int, ...], ...]:
        """The column sets of the singular m x m minors, in
        lexicographic order."""
        if self._failing is None:
            object.__setattr__(self, "_failing", _singular_minors(
                tuple(zip(*self.coeffs)), self.m, self.p))
        return self._failing

    @property
    def generic_minors(self) -> bool:
        return self.m <= self.k and not self._failing_minors

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


def _singular_minors(columns: Sequence[Sequence[int]], m: int,
                     p: int) -> tuple[tuple[int, ...], ...]:
    """The m-sets of ``columns``, vectors of F_p^m, that are linearly
    dependent, in lexicographic order: the column sets of the singular
    m x m minors.

    The sets grow one column at a time, so sets in lexicographic order
    share the work on their common prefix.  A prefix of d independent
    columns is held as a basis of the m - d vectors orthogonal to it.  A
    next column orthogonal to all of them lies in the prefix's span, and
    every set that extends the prefix with it is singular.  Otherwise
    one basis vector with a nonzero product is spent to clear that
    product from the others, which leaves the basis for the longer
    prefix.  With m - 1 columns chosen one vector is left, so each last
    column costs one product.
    """
    k = len(columns)
    found = []
    # one frame per prefix on the path: the next column to try after
    # it, the prefix and its orthogonal basis
    frames = [[0, (), [[int(i == j) for j in range(m)] for i in range(m)]]]
    while frames:
        frame = frames[-1]
        j, chosen, normals = frame
        rest = m - len(chosen) - 1
        if not rest:
            [u] = normals
            found.extend(chosen + (last,) for last in range(j, k)
                         if not sum(map(mul, u, columns[last])) % p)
        if not rest or j >= k - rest:
            frames.pop()
            continue
        frame[0] = j + 1
        dots = [sum(map(mul, u, columns[j])) % p for u in normals]
        spent = next((i for i, t in enumerate(dots) if t), None)
        if spent is None:
            found.extend(chosen + (j,) + more
                         for more in combinations(range(j + 1, k), rest))
        else:
            u0 = normals[spent]
            f = p - pow(dots[spent], -1, p)
            frames.append([j + 1, chosen + (j,),
                           [[(a + f * t * b) % p for a, b in zip(u, u0)] if t else u
                            for i, (u, t) in enumerate(zip(normals, dots))
                            if i != spent]])
    return tuple(found)


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
    """Both structural hypotheses of the system, with its row sums mod
    p and every failing minor."""
    return ValidationReport(sys_spec.rows_sum_zero, sys_spec.generic_minors,
                            tuple(sum(r) % sys_spec.p for r in sys_spec.coeffs),
                            sys_spec._failing_minors)


def _check_count(sys_spec: SystemSpec, xs: Sequence) -> None:
    """Raise unless there is one vector per variable of the system."""
    if len(xs) != sys_spec.k:
        raise ValueError(f"expected {sys_spec.k} vectors, got {len(xs)}")


def _solution_dim(sys_spec: SystemSpec, xs: Sequence[tuple[int, ...]]) -> int:
    """The common dimension of k reduced vectors, checked against the
    system's k."""
    _check_count(sys_spec, xs)
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
    if sys_spec.constants is None:
        return not any(sum(map(mul, row, col)) % p
                       for row in sys_spec.coeffs for col in cols)
    for row, target in zip(sys_spec.coeffs, sys_spec.constant_rows(n)):
        if tuple([sum(map(mul, row, col)) % p for col in cols]) != target:
            return False
    return True


def is_solution(sys_spec: SystemSpec, entries: Sequence) -> bool:
    """Whether the k vectors satisfy every equation of the system."""
    xs = reduce_vectors(entries, sys_spec.p)
    return _solves(sys_spec, xs, _solution_dim(sys_spec, xs))


@dataclass(frozen=True)
class SolutionTuple:
    """A k-tuple of vectors solving a system, with its classification;
    the span dimension is ranked on first use."""

    entries: tuple[tuple[int, ...], ...]
    p: int
    distinct_count: int

    @classmethod
    def create(cls, sys_spec: SystemSpec, entries: Sequence) -> "SolutionTuple":
        """Check that the entries solve the system, then classify them."""
        xs = reduce_vectors(entries, sys_spec.p)
        if not _solves(sys_spec, xs, _solution_dim(sys_spec, xs)):
            raise ValueError("entries do not solve the system")
        return cls._of(xs, sys_spec.p)

    @classmethod
    def _of(cls, entries: tuple[tuple[int, ...], ...], p: int) -> "SolutionTuple":
        return cls(entries, p, len(set(entries)))

    @property
    def all_equal(self) -> bool:
        return self.distinct_count == 1

    @cached_property
    def span_dim(self) -> int:
        return rank(self.entries, self.p)


_MODES = ("any", "not-all-equal", "distinct", "span-dim", "distinct-count")


@dataclass(frozen=True)
class ClassFilter:
    """A predicate on solution tuples, decided from the distinct entries
    alone, so a tuple and its support (as the extremal search keeps it)
    get the same answer: ``least`` for a count of distinct entries, and
    ``_span_admits``, the rank on the entries' point codes, for
    ``span-dim``.

    Modes: ``any`` admits everything; ``not-all-equal`` drops constant
    tuples; ``distinct`` requires all k entries pairwise distinct;
    ``span-dim`` requires span dimension >= r; ``distinct-count``
    requires at least ell distinct entries.  All but ``span-dim`` ask
    only for a least distinct count (``least``).
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

    def least(self, k: int) -> int | None:
        """The least number of distinct entries of an admitted k-tuple,
        which alone decides the filter: 1, 2, k or ell; None for
        ``span-dim``, which reads the entries themselves."""
        return {"any": 1, "not-all-equal": 2, "distinct": k,
                "distinct-count": self.ell}.get(self.mode)

    def _span_admits(self, distinct: int, codes, xs: Iterable) -> bool:
        """The ``span-dim`` filter on a tuple with ``distinct`` distinct
        entries, which ``xs`` yields as point codes of ``codes`` (repeats
        allowed).  The span dimension never exceeds the distinct count,
        so the rank runs only where it can succeed, and stops at the
        r-th pivot."""
        return distinct >= self.r and codes.rank(xs, self.r) == self.r

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


class _Sparse(dict):
    """A lookup table indexed by code where a list would be too long:
    an absent code reads None, as in a list table."""

    def __missing__(self, code):
        return None


class _SplitRow:
    """A row of a sum or scale table over split coordinates: the code
    h * size + l maps to hi[h] * size + lo[l], each half by its own row."""

    __slots__ = ("hi", "lo", "size")

    def __init__(self, hi, lo, size: int):
        self.hi, self.lo, self.size = hi, lo, size

    def __getitem__(self, x: int) -> int:
        h, l = divmod(x, self.size)
        return self.hi[h] * self.size + self.lo[l]


class _ModRow:
    """The map x -> (a + w*x) mod p on F_p, a row of the sum (w = 1) or
    scale (a = 0) table of F_p where its p^2 entries are over the cap."""

    __slots__ = ("a", "w", "p")

    def __init__(self, a: int, w: int, p: int):
        self.a, self.w, self.p = a, w, p

    def __getitem__(self, x: int) -> int:
        return (self.a + self.w * x) % self.p


class _Rows:
    """Rows made on demand: ``rows[a]`` is ``make(a)``."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __getitem__(self, a):
        return self.make(a)


def _sum_table(p: int, n: int) -> list[list[int]]:
    """Row a of the sum table of F_p^n lists the code of a + b at index
    b, built one leading coordinate at a time: with h as the new leading
    digit, a code c of the shorter space becomes h * size + c."""
    rows, size = [[0]], 1
    for _ in range(n):
        lead = [[h * size + c for c in row] for h in range(p) for row in rows]
        rows = [list(chain.from_iterable(lead[(ah + bh) % p * size + al]
                                         for bh in range(p)))
                for ah in range(p) for al in range(size)]
        size *= p
    return rows


class _PointCodes:
    """Integer codes of the points of F_p^n, the one point representation
    of the solution walks.

    A point's code is its base-p number, first coordinate most
    significant, so it is the point's index in ``PointSet.full_space``
    order.  ``add[a][b]`` is the code of a + b and ``scale[w][x]`` that
    of w x.  The layout is chosen once per (p, n): where the p^(2n) sum
    entries fit ``_TABLE_CAP`` both are lists of lists; above it a
    single coordinate works modulo p, and more coordinates split into a
    leading and a trailing half, each laid out the same way.
    ``table()`` is an empty lookup table indexed by code: a list of p^n
    Nones within the cap, else a dict that reads None where a code is
    absent.  ``rank`` answers span questions on codes with the same
    rows.
    """

    def __init__(self, p: int, n: int):
        self.p, self.n = p, n

    def encode(self, v: Iterable[int]) -> int:
        code, p = 0, self.p
        for c in v:
            code = code * p + c
        return code

    def decode(self, code: int) -> tuple[int, ...]:
        digits = []
        for _ in range(self.n):
            code, d = divmod(code, self.p)
            digits.append(d)
        return tuple(reversed(digits))

    def table(self) -> list | _Sparse:
        if _capped(self.p, _TABLE_CAP, None, self.n) is None:
            return _Sparse()
        return [None] * self.p**self.n

    @cached_property
    def _rows(self) -> tuple:
        p, n = self.p, self.n
        if _capped(p, _TABLE_CAP, None, 2 * n) is not None:
            add = _sum_table(p, n)
            scale = [[0] * len(add)]
            for _ in range(1, p):
                # (w + 1) x = w x + x
                scale.append([add[wx][x] for x, wx in enumerate(scale[-1])])
            return add, scale
        if n == 1:
            return _Rows(lambda a: _ModRow(a, 1, p)), _Rows(lambda w: _ModRow(0, w, p))
        hi, lo = _point_codes(p, n - n // 2), _point_codes(p, n // 2)
        size = p ** (n // 2)
        return (_Rows(lambda a: _SplitRow(hi.add[a // size], lo.add[a % size], size)),
                _Rows(lambda w: _SplitRow(hi.scale[w], lo.scale[w], size)))

    @property
    def add(self):
        return self._rows[0]

    @property
    def scale(self):
        return self._rows[1]

    @cached_property
    def _leads(self):
        """Per code, the column and digit of its first nonzero
        coordinate, None for zero, read off its base-p digits: once into
        a list beside the sum table within the cap, else per read."""
        p, n = self.p, self.n

        def lead(code):
            col = n - 1
            while code >= p:
                code //= p
                col -= 1
            return (col, code) if code else None

        return ([lead(code) for code in range(len(self.add))]
                if isinstance(self.add, list) else _Rows(lead))

    def _cleared(self, codes: Iterable[int], basis: dict) -> Iterator[int]:
        """Each of ``codes`` cleared by ``basis``, which keeps each basis
        point under its lead column, scaled to lead digit 1: a code loses
        one lead after another to them, each by a sum and a scale row,
        until it is zero (it lies in their span) or its lead column is
        not in ``basis``.  One code is read per step, so a caller may
        grow ``basis`` between steps and stop at any one."""
        (add, scale), leads, p = self._rows, self._leads, self.p
        for x in codes:
            while x:
                col, d = leads[x]
                b = basis.get(col)
                if b is None:
                    break
                x = add[x][scale[p - d][b]]
            yield x

    def rank(self, codes: Iterable[int], limit: int) -> int:
        """The dimension of the span of the points ``codes``, or ``limit``
        (at least 1) as soon as that many are independent, with no code
        read after: forward elimination on codes, each code that
        ``_cleared`` leaves nonzero joining the basis."""
        scale, leads, basis = self._rows[1], self._leads, {}
        for x in self._cleared(codes, basis):
            if x:
                col, d = leads[x]
                basis[col] = x if d == 1 else scale[pow(d, -1, self.p)][x]
                if len(basis) == limit:
                    return limit
        return len(basis)


@lru_cache(maxsize=32)
def _point_codes(p: int, n: int) -> _PointCodes:
    """The codes of F_p^n, their rows built once per (p, n)."""
    return _PointCodes(p, n)


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
        """All of F_p^n, or its nonzero points; more than
        ``DEFAULT_WORK_CAP`` points are refused before any is built."""
        p = check_prime(p)
        if n < 0:
            raise ValueError("n must be nonnegative")
        _capped(p, DEFAULT_WORK_CAP, "{} points exceed the cap {cap}", n,
                0 if include_zero else 1)
        pts = (v for v in product(range(p), repeat=n) if include_zero or any(v))
        return cls(p, n, tuple(pts))

    @classmethod
    def from_file(cls, src) -> "PointSet":
        p, n, vectors = read_vector_file(src)
        return cls.make(vectors, p, n)

    @cached_property
    def _codes(self) -> dict:
        """Each point's code (see ``_PointCodes``), in point order."""
        encode = _point_codes(self.p, self.n).encode
        return {v: encode(v) for v in self.points}

    @cached_property
    def _index_view(self) -> tuple[list, list | _Sparse]:
        """The set as a solution walk reads it, each point labelled by
        its index: the (code, index) pool in point order, and the table
        from each member's code to its index."""
        pool = list(zip(self._codes.values(), range(len(self.points))))
        table = _point_codes(self.p, self.n).table()
        for code, label in pool:
            table[code] = label
        return pool, table

    def __contains__(self, v) -> bool:
        return reduce_coords(v, self.p) in self._codes

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def restrict_to(self, subspace: Subspace) -> "PointSet":
        """The points lying in the subspace, order preserved.  Each
        point's code is cleared (``_PointCodes._cleared``) by the codes
        of the subspace's reduced basis, each under its pivot column with
        lead digit 1, and the point lies in it when nothing is left.
        ValueError, before any point is read, for a subspace over another
        prime or of another ambient dimension."""
        if subspace.p != self.p:
            raise ValueError("subspace prime differs from point set prime")
        if subspace.ambient_dim != self.n:
            raise ValueError("vector dimension differs from ambient dimension")
        codes = _point_codes(self.p, self.n)
        basis = dict(zip(subspace.pivots, map(codes.encode, subspace.basis)))
        return PointSet(self.p, self.n, tuple(
            v for v, x in zip(self.points, codes._cleared(self._codes.values(), basis))
            if not x))

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


def _check_walk_work(sys_spec: SystemSpec, points: PointSet, cap: int) -> None:
    """Raise CapExceededError when the |points|^(k - m) assignments of
    the free positions that a solution walk may scan exceed ``cap``."""
    _capped(len(points), cap, "{} assignments exceed the cap {cap}",
            max(sys_spec.k - sys_spec.m, 0))


def _orbit_walk_work(completion: _Completion, points: int) -> int:
    """The free assignments a walk bounded by ``_plan`` takes over a
    pool of ``points`` points: C(points + c - 1, c) multisets per class
    of c free positions with equal weight columns, the classes
    multiplied.  Built a position at a time: the r-th position of a
    class multiplies the count by (points + r - 1) / r, exactly."""
    work, ranks = 1, []
    for low in completion._plan[0]:
        ranks.append(1 if low is None else ranks[low] + 1)
        work = work * (points + ranks[-1] - 1) // ranks[-1]
    return work


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
    The walk labels each point by its index (``PointSet._index_view``)
    and ``span-dim`` ranks the pinned codes and those of the labels.
    """
    flt = flt or ClassFilter.any()
    least = flt.least(sys_spec.k)
    p = sys_spec.p
    _check_same_prime(sys_spec, points)
    n = points.n
    pin = {}
    for pos, vec in (pinned or {}).items():
        if not 0 <= pos < sys_spec.k:
            raise IndexError(f"pinned position {pos} out of range")
        cs = reduce_coords(vec, p)
        if len(cs) != n:
            raise ValueError("pinned vector dimension mismatch")
        pin[pos] = cs
    completion = _completion(sys_spec, n, tuple(pin))
    pool, table = points._index_view
    pts, codes = points.points, completion.codes
    pins = tuple(map(codes.encode, pin.values()))
    head = completion.free[:-1]
    # positions of an end's labels: the last free one, then the open pivots
    tail = completion.free[-1:] + [completion.pivots[r]
                                   for r in completion.open_pivots]
    entries = [pin.get(j) for j in range(sys_spec.k)]
    for prefix, ends in completion.walk([pool] * len(completion.free),
                                        [table] * len(completion.open_pivots), pins):
        for j, i in zip(head, prefix):
            entries[j] = pts[i]
        for end in ends:
            for j, i in zip(tail, end):
                entries[j] = pts[i]
            sol = SolutionTuple._of(tuple(entries), p)
            if (sol.distinct_count >= least if least is not None
                    else flt._span_admits(sol.distinct_count, codes, chain(
                        pins, [pool[i][0] for i in prefix + end]))):
                yield sol


def count_solutions(sys_spec: SystemSpec, points: PointSet,
                    flt: ClassFilter | None = None) -> int:
    """The number of solutions ``enumerate_solutions`` yields with no
    position pinned, counted over the walk with no tuple built.

    The walk yields each point's index (``PointSet._index_view``) as its
    label, so a solution's distinct count is its number of distinct
    labels: ``any`` counts the ends of the walk, the other least counts
    compare each distinct count with ``ClassFilter.least(k)``, and
    ``span-dim`` reads the codes of the distinct labels from the pool.
    The prime is checked and DegenerateSystemError raised as
    ``enumerate_solutions`` does, at the call rather than at the first
    step."""
    flt = flt or ClassFilter.any()
    least = flt.least(sys_spec.k)
    _check_same_prime(sys_spec, points)
    completion = _completion(sys_spec, points.n, ())
    pool, table = points._index_view
    walk = completion.walk([pool] * len(completion.free),
                           [table] * len(completion.open_pivots))
    if least == 1:
        return sum(len(ends) for _, ends in walk)
    count = 0
    for prefix, ends in walk:
        for end in ends:
            entries = set(prefix + end)
            count += (len(entries) >= least if least is not None
                      else flt._span_admits(len(entries), completion.codes,
                                            [pool[i][0] for i in entries]))
    return count


class _Completion:
    """Solutions of the system with the entries at some positions given:
    the one pivot solver of the module docstring.

    The m pivot positions are solved from the others: pivot r holds
    const_r + sum_j w_rj * x_j over the non-pivot positions j.  The
    pivots avoid the pinned positions as far as the other columns allow;
    when fewer than m of those are independent, the missing pivots are
    pinned positions, whose solved entries must equal the given points.
    The other positions are free, in increasing order.  Pivots, constants
    and weights all come from one reduced echelon form of the
    coefficients beside the constant terms (see ``_echelon``).  The walk
    takes and solves points as their codes in ``codes``, so each pivot
    entry is a lookup in the sum and scale rows.  The scale rows that
    fold the pinned entries into the constants (``start``) are built
    with the rest of the set-up, once per completion, and those of the
    free positions on the first walk (``_plan``), with each free
    position's lower bound for a walk over one solution per orbit of
    equal weight columns.  Callers take it from ``_completion``."""

    def __init__(self, sys_spec: SystemSpec, n: int, pinned: Sequence[int] = ()):
        p, k = sys_spec.p, sys_spec.k
        self.pinned = tuple(pinned)
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
        self.codes = _point_codes(p, n)
        self._const_codes = list(map(self.codes.encode, self.const))
        # per pinned non-pivot position, its index in the pins and the
        # scale rows of its weights, which ``start`` folds with
        scale = self.codes.scale
        self._folds = [(i, [scale[w] for w in self.weights[j]])
                       for i, j in enumerate(self.pinned) if j in self.weights]

    def start(self, pins: Sequence[int] = ()) -> list[int]:
        """The pivots' partial sums before any free entry: the constants
        with the pinned non-pivot entries, of codes ``pins``, folded in
        through the scale rows built with the completion."""
        add, consts = self.codes._rows[0], self._const_codes
        for i, rows in self._folds:
            x = pins[i]
            consts = [add[c][sc[x]] for c, sc in zip(consts, rows)]
        return consts

    def _prefixes(self, pools: Sequence[Sequence[tuple]], lower: Sequence,
                  partial: list, chosen: list, t: int = 0,
                  prefix: tuple = ()) -> Iterator[tuple[tuple, list]]:
        """(prefix, partial sums) for each choice of the entries at the
        free positions from ``t`` on but the last two, after ``prefix``
        with the sums ``partial``, in lexicographic order: the entry at
        ``free[s]`` is ``pools[s][chosen[s]]``, a (code, label) pair whose
        label joins the prefix, with ``chosen[s]`` no smaller than
        ``chosen[lower[s]]`` unless ``lower[s]`` is None, as ``walk``
        bounds them.  ``chosen`` holds a slot per free position and is
        set in place, so ``walk`` reads the bound of its inner loop
        there."""
        if t >= len(pools) - 2:
            yield prefix, partial
            return
        add, pool, low, row = self.codes.add, pools[t], lower[t], self._plan[1][t]
        for i in range(0 if low is None else chosen[low], len(pool)):
            chosen[t] = i
            x, label = pool[i]
            yield from self._prefixes(
                pools, lower, [add[base][sc[x]] for base, sc in zip(partial, row)],
                chosen, t + 1, prefix + (label,))

    def walk(self, pools: Sequence[Sequence[tuple]], tables: Sequence,
             pins: Sequence[int] = (), lower: Sequence | None = None
             ) -> Iterator[tuple[tuple, list]]:
        """Every solution whose pinned entries have the codes ``pins``,
        whose entry at the free position ``free[i]`` comes from
        ``pools[i]`` (a sequence of (code, label) pairs) and whose entry
        at the open pivot ``pivots[open_pivots[i]]`` has a label in
        ``tables[i]``, a table indexed by code (see ``_PointCodes``) that
        holds None where a point is absent.

        Yields (prefix, ends) for each choice of the entries at all free
        positions but the last, in lexicographic pool order: prefix is
        that choice as labels, and ends lists, in pool order, the tuple
        (label of the last free entry, table value of each open pivot)
        of each choice of the last free entry that completes a solution
        (no last label when there is no free position).  The entries
        solved from the last free position depend on the others only
        through their partial sums, which repeat, so each distinct
        partial is completed once, over the whole last pool, and kept up
        to ``_MEMO_CAP``.

        ``lower`` bounds the walk to one solution per orbit of swaps at
        equal weight columns, which keep every pivot entry and so the
        support: given per free position as ``_plan`` gives it, the
        pools are one pool whose labels increase in pool order, and the
        entry at ``free[s]`` is no earlier in it than the entry at
        ``free[lower[s]]`` unless ``lower[s]`` is None.  The last
        position's bound cuts each memoised ends list to a suffix, found
        by bisection on the first label."""
        add, scales = self.codes.add, self._plan[1]
        lower = lower or [None] * len(scales)
        last = scales[-1] if scales else None
        last_pool = pools[-1] if scales else None
        # the last free position but one varies fastest, so the sum rows
        # of the partials before it are read once per choice of the others
        inner = scales[-2] if len(scales) > 1 else None
        inner_pool = pools[-2] if inner else [None]
        # the bounds of the last two free positions
        low, cut = lower[-2:] if inner else (None, None)
        first = itemgetter(0)
        chosen = [0] * len(scales)
        memo: dict = {}
        stored = 0
        for outer, partial in self._prefixes(pools, lower, self.start(pins), chosen):
            rows = [add[base] for base in partial] if inner else None
            for pair in inner_pool if low is None else inner_pool[chosen[low]:]:
                if pair is None:
                    prefix, key = outer, tuple(partial)
                else:
                    x, label = pair
                    prefix = outer + (label,)
                    key = tuple([row[sc[x]] for row, sc in zip(rows, inner)])
                ends = memo.get(key)
                if ends is None:
                    ends = self._ends(key, last, last_pool, tables, pins)
                    if stored < _MEMO_CAP:
                        memo[key] = ends
                        stored += len(ends) + 1
                if cut is not None:
                    ends = ends[bisect_left(ends, prefix[cut], key=first):]
                yield prefix, ends

    def _ends(self, partial, last, pool, tables, pins) -> list[tuple]:
        if last is None:
            # no free position: the pivots are solved outright
            if any(partial[r] != pins[i] for r, i in self.pinned_pivots):
                return []
            labels = [table[partial[r]]
                      for r, table in zip(self.open_pivots, tables)]
            return [] if None in labels else [tuple(labels)]
        add, out = self.codes.add, []
        # (sum row, scale row, pinned code) per pinned pivot and (sum
        # row, scale row, table) per open pivot: pivot r solves to
        # partial_r + w_r * x for the last free entry x
        fixed = [(add[partial[r]], last[r], pins[i])
                 for r, i in self.pinned_pivots]
        solved = [(add[partial[r]], last[r], table)
                  for r, table in zip(self.open_pivots, tables)]
        if not fixed and len(solved) == 1:
            # the common shape, one pivot looked up, as one comprehension
            [(row, sc, table)] = solved
            return [(label, value) for x, label in pool
                    if (value := table[row[sc[x]]]) is not None]
        for x, label in pool:
            for row, sc, want in fixed:
                if row[sc[x]] != want:
                    break
            else:
                labels = [label]
                for row, sc, table in solved:
                    value = table[row[sc[x]]]
                    if value is None:
                        break
                    labels.append(value)
                else:
                    out.append(tuple(labels))
        return out

    @cached_property
    def _plan(self) -> tuple[list, list]:
        """Per free position, the nearest earlier free position with the
        same weight column (None if there is none), the lower bounds
        that ``walk`` takes for one solution per orbit, and the scale
        rows of its weights, which every walk reads."""
        scale = self.codes.scale
        previous, scales, last = [], [], {}
        for t, j in enumerate(self.free):
            column = tuple(self.weights[j])
            previous.append(last.get(column))
            last[column] = t
            scales.append([scale[w] for w in column])
        return previous, scales


@lru_cache(maxsize=32)
def _completion(sys_spec: SystemSpec, n: int, pinned: tuple) -> _Completion:
    """The completion of the system over F_p^n with the positions
    ``pinned`` pinned, in that order, built once per (system, n,
    pinned): a walk reads it and never changes it."""
    return _Completion(sys_spec, n, pinned)


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
    as reduced coordinate tuples, and is checked and rank-tested on its
    codes (``_PointCodes.rank``) once for all index sets; each index
    set's completion comes from ``_completion``.  The rank test stops
    once no index set can hold an interesting tuple.
    A tuple reaches a walk only through the pivots' partial sums with
    its entries folded in (``_Completion.start``, from the fold rows the
    completion built once) and its entries at pinned pivots, whose
    indices among the pins are found once per index set in a call; a
    completion's distinct count, of point indices, leaves the pinned
    positions out.  So an index set walks once per such key in a call,
    and a later tuple with the key takes the answer and is charged what
    the walk cost.
    CapExceededError once the completions walked, and the walked
    prefixes that complete nothing, over all tuples and index sets,
    pass ``DEFAULT_WORK_CAP``."""
    return _interesting_tuples(sys_spec, points, index_sets, ell, tuples, DEFAULT_WORK_CAP)


def _interesting_tuples(sys_spec: SystemSpec, points: PointSet,
                        index_sets: Sequence[Sequence[int]], ell: int,
                        tuples: Iterable[Sequence[tuple[int, ...]]],
                        cap: int) -> list:
    """``interesting_tuples`` with at most ``cap`` completions and
    empty prefixes walked."""
    _check_same_prime(sys_spec, points)
    m = sys_spec.m
    positions = [_interesting_positions(sys_spec, idx, ell) for idx in index_sets]
    need = max(0, ell - m - 1)
    codes, live, left = points._codes, None, cap
    space = _point_codes(sys_spec.p, points.n)
    groups: list[list] = [[] for _ in positions]
    for xs in tuples:
        if len(xs) != m + 1:
            raise ValueError(f"need an index set and tuple of size m + 1 = {m + 1}")
        pins = tuple([codes.get(x) for x in xs])
        if None in pins:
            raise ValueError("tuple entries must belong to the point set")
        if live == [] or space.rank(pins, m + 1) != m + 1:
            continue
        if live is None:
            # built at the first independent tuple, as dependent tuples
            # never need one.  On a homogeneous system a pinned pivot
            # with no free position solves to a combination of the other
            # pins, so no independent tuple extends on that index set.
            completions = [_completion(sys_spec, points.n, idx) for idx in positions]
            live = [(c, group, {}, [i for _, i in c.pinned_pivots])
                    for c, group in zip(completions, groups)
                    if not (sys_spec.homogeneous and c.pinned_pivots and not c.free)]
            pool, table = points._index_view
        for completion, group, seen, fixed in live:
            key = (*completion.start(pins), *[pins[i] for i in fixed])
            known = seen.get(key)
            if known is None:
                hit, charged = False, 0
                for prefix, ends in completion.walk([pool] * len(completion.free),
                                                    [table] * len(completion.open_pivots), pins):
                    at = next((t for t, end in enumerate(ends)
                               if len(set(prefix + end)) >= need), None)
                    # the completions walked up to a hit, or one step for a prefix
                    # that completes nothing: a count, so a refusal is reproducible
                    charged += (len(ends) or 1) if at is None else at + 1
                    hit = at is not None
                    if hit or charged > left:
                        break
                known = seen[key] = hit, charged
            hit, charged = known
            left -= charged
            if left < 0:
                _capped(cap + 1, cap, "{} tuple completions exceed the cap {cap}")
            if hit:
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
    xs = reduce_vectors(tuple_entries, sys_spec.p)
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
    when the |A|^(m+1) candidate tuples exceed ``DEFAULT_WORK_CAP``, and
    once the completions walked pass it."""
    m = sys_spec.m
    idx = _interesting_positions(sys_spec, index_set, ell)
    _capped(len(points), DEFAULT_WORK_CAP,
            "{} candidate tuples exceed the cap {cap}", m + 1)
    count = len(interesting_tuples(sys_spec, points, [idx], ell,
                                   product(points.points, repeat=m + 1)))
    bound = sys_spec.k**2 * sys_spec.p ** (m * points.n)
    return InterestingCountReport(idx, ell, count, bound, count <= bound)


def write_system_file(dest, sys_spec: SystemSpec) -> None:
    """Write a system: header ``p=<p> m=<m> k=<k>``, m coefficient rows,
    then an optional ``b:`` block with one constant vector per row."""
    lines = [f"p={sys_spec.p} m={sys_spec.m} k={sys_spec.k}"]
    for row in sys_spec.coeffs:
        lines.append(" ".join(map(str, row)))
    if sys_spec.constants is not None:
        lines.append("b:")
        for b in sys_spec.constants:
            lines.append(" ".join(map(str, b)))
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
