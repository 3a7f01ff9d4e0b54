"""Independent reference implementations used only by the tests.

Everything here is written from the bare definitions, avoiding the
package's own algorithms: determinant-based rank instead of row
reduction, grid search instead of bisection, full enumeration instead
of pivot solving, unpruned recursion instead of branch and bound, and
explicit span tables instead of echelon bases.  Slow on purpose.

Thirteen exceptions sit at the end.  The earlier weight, which checks all
2^k subsets of positions with a fresh row reduction and subspace each,
is the reference that the walk over the admissible family must
reproduce field for field.  The earlier extremal search, which solves
the system again for every candidate, is the reference that the
support-index search must reproduce node for node.  The earlier
monomial count, a big-integer convolution of degree distributions, is
the reference for the inclusion-exclusion count.  The earlier row
reduction is the reference for the leaner one, and the earlier
interesting-tuple test, which runs a pinned enumeration per tuple, is
the reference for the completion built once per index set.  The
earlier enumeration loop, which solves the pivot entries afresh for
every free assignment and re-verifies and ranks each tuple, is the
reference that ``enumerate_solutions`` must reproduce solution for
solution and in order; the earlier partitioned-bound loop, with its own
pivots, inverse minor and right-hand sides, is the reference for
``partitioned_solution_bound``, witness included.  The earlier
slice-rank search, which assigns every support element to an axis under
a share ordering and a greedy bound, is the reference for the
hitting-set search on supports too large for the unpruned recursion.
The earlier mean phi(z), summed directly over the p powers of z, is
the reference for the closed form with its series and tail branches.
The earlier set-up of the pivot solver, one elimination for the pivots
and a second for the inverse pivot minor, then that inverse times the
constants and times each non-pivot column, is the reference for the
one reduced echelon form that gives all of it.  The earlier indicator
tensor, a scan of all L^k index tuples with ``is_solution``, is the
reference for the support read off the solver's walk.  The earlier
subspace sampler, ``randrange`` per entry and ``rref_with_pivots`` per
matrix, is the reference that ``random_subspace`` must reproduce draw
for draw.  The earlier solution test, one sum per equation and
coordinate, is the reference for the column-wise solve kernel behind
``is_solution``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Sequence

import numpy as np

from fpsystems.errors import DegenerateSystemError
from fpsystems.fplinalg import (
    Subspace,
    inverse_mod,
    invert_matrix,
    normalize_line_rep,
    reduce_coords,
    rref_with_pivots,
)
from fpsystems.linsystem import ClassFilter, SolutionTuple, is_solution, pivot_columns
from fpsystems.slicerank import PartitionedBoundReport, ceiling
from fpsystems.weights import AdmissibleSet, WeightReport


def grid_min_ratio(p: int, alpha: float, step: float = 1e-6) -> float:
    """Minimum of (1 + z + ... + z^(p-1)) / z^alpha over z in (0, 1]."""
    z = np.arange(step, 1.0 + step, step)
    vals = np.zeros_like(z)
    for j in range(p):
        vals += z**j
    vals /= z**alpha
    return float(vals.min())


def det_mod(rows: list[list[int]], p: int) -> int:
    """Laplace-expansion determinant mod p."""
    size = len(rows)
    if size == 1:
        return rows[0][0] % p
    total = 0
    for j in range(size):
        if rows[0][j] % p == 0:
            continue
        minor = [[row[c] for c in range(size) if c != j] for row in rows[1:]]
        sign = 1 if j % 2 == 0 else p - 1
        total += sign * rows[0][j] * det_mod(minor, p)
    return total % p


def rank_by_minors(rows: list[list[int]], p: int) -> int:
    """Largest r with some nonsingular r x r submatrix."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    for r in range(min(nrows, ncols), 0, -1):
        for ris in combinations(range(nrows), r):
            for cis in combinations(range(ncols), r):
                sub = [[rows[i][j] for j in cis] for i in ris]
                if det_mod(sub, p) != 0:
                    return r
    return 0


def brute_solutions(coeffs, constants, p: int, points: list[tuple[int, ...]],
                    n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All k-tuples over the point list satisfying the system, by direct
    substitution into every equation."""
    k = len(coeffs[0])
    out = []
    for tup in product(points, repeat=k):
        ok = True
        for j, row in enumerate(coeffs):
            target = constants[j] if constants else (0,) * n
            for s in range(n):
                if sum(row[i] * tup[i][s] for i in range(k)) % p != target[s] % p:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tup)
    return out


def brute_monomial_count(p: int, m: int, k: int, n: int) -> int:
    """Count degree tuples in {0..p-1}^n with sum <= floor(mn(p-1)/k)."""
    cap = (m * n * (p - 1)) // k
    return sum(1 for ds in product(range(p), repeat=n) if sum(ds) <= cap)


def unpruned_slice_rank(support: list[tuple[int, ...]], k: int) -> int:
    """Minimum over all axis assignments of the summed distinct
    projections, by plain recursion over the full k^|S| tree."""
    best = [len(support) * k + 1]

    def walk(idx: int, buckets: list[set]) -> None:
        if idx == len(support):
            best[0] = min(best[0], sum(len(b) for b in buckets))
            return
        elem = support[idx]
        for axis in range(k):
            added = elem[axis] not in buckets[axis]
            if added:
                buckets[axis].add(elem[axis])
            walk(idx + 1, buckets)
            if added:
                buckets[axis].remove(elem[axis])

    walk(0, [set() for _ in range(k)])
    return best[0] if support else 0


def span_table(vectors: list[tuple[int, ...]], p: int, n: int) -> set:
    """Every linear combination of the vectors, by direct enumeration."""
    out = set()
    for coeffs in product(range(p), repeat=len(vectors)):
        v = tuple(sum(c * vec[s] for c, vec in zip(coeffs, vectors)) % p
                  for s in range(n))
        out.add(v)
    if not vectors:
        out.add((0,) * n)
    return out


def weight_by_definition(entries: list[tuple[int, ...]], p: int) -> int:
    """Maximum weight over admissible index sets, straight from the
    definition: independence by span size, membership by span table,
    line classes by explicit orbit enumeration."""
    k = len(entries)
    n = len(entries[0])
    best = None
    for size in range(k + 1):
        for idx in combinations(range(k), size):
            chosen = [entries[i] for i in idx]
            table = span_table(chosen, p, n)
            if len(table) != p**size:
                continue
            rest = [i for i in range(k) if i not in idx]
            if any(entries[j] in table for j in rest):
                continue
            classes: list[set] = []
            for j in rest:
                orbit = {tuple((c * entries[j][s] + u[s]) % p
                               for s in range(n))
                         for c in range(1, p) for u in table}
                for cls in classes:
                    if entries[j] in cls:
                        break
                else:
                    classes.append(orbit)
            w = (k + 1) * size + len(classes)
            if best is None or w > best:
                best = w
    return best


def subspaces_as_sets(n: int, d: int, p: int) -> list[frozenset]:
    """All d-dimensional subspaces of F_p^n, each as its full vector set,
    built from independent tuples and deduplicated."""
    vectors = list(product(range(p), repeat=n))
    found = set()
    for tup in product(vectors, repeat=d):
        table = span_table(list(tup), p, n)
        if len(table) == p**d:
            found.add(frozenset(table))
    return sorted(found, key=sorted)


def containment_fraction(n: int, d: int, p: int,
                         fixed: list[tuple[int, ...]]) -> Fraction:
    """Fraction of d-dimensional subspaces containing every fixed vector."""
    subs = subspaces_as_sets(n, d, p)
    hits = sum(1 for sp in subs if all(v in sp for v in fixed))
    return Fraction(hits, len(subs))


def comparable(a: tuple[int, ...], b: tuple[int, ...],
               ranks: list[dict]) -> bool:
    le = all(ranks[ax][a[ax]] <= ranks[ax][b[ax]] for ax in range(len(a)))
    ge = all(ranks[ax][a[ax]] >= ranks[ax][b[ax]] for ax in range(len(a)))
    return le or ge


def random_antichain(rng, length: int, k: int, max_size: int) -> list[tuple[int, ...]]:
    """Greedy random antichain under the all-increasing orders."""
    ranks = [{v: v for v in range(length)} for _ in range(k)]
    out: list[tuple[int, ...]] = []
    attempts = 0
    while len(out) < max_size and attempts < 200:
        attempts += 1
        cand = tuple(rng.randrange(length) for _ in range(k))
        if cand in out:
            continue
        if all(not comparable(cand, other, ranks) for other in out):
            out.append(cand)
    return out


def reference_admissible_sets(entries, p: int) -> list[AdmissibleSet]:
    """Every admissible subset of positions, by size then lexicographic,
    from a scan of all 2^k subsets."""
    xs = [reduce_coords(x, p) for x in entries]
    k, n = len(xs), len(xs[0])
    out: list[AdmissibleSet] = []
    for size in range(k + 1):
        for idx in combinations(range(k), size):
            basis, _ = rref_with_pivots([xs[i] for i in idx], p)
            if len(basis) != size:
                continue
            u = Subspace(basis, n, p)
            reduced = [u.reduce(xs[j]) for j in range(k) if j not in idx]
            if not all(any(red) for red in reduced):
                continue
            lines = sorted({normalize_line_rep(red, p) for red in reduced})
            out.append(AdmissibleSet(idx, u, (k + 1) * size + len(lines), tuple(lines)))
    return out


def reference_weight(entries, p: int, adm=None) -> WeightReport:
    """The weight report taken from the full admissible list (``adm``,
    computed here when not given): the first set of maximum weight, and
    its outside positions grouped by line."""
    xs = [reduce_coords(x, p) for x in entries]
    if adm is None:
        adm = reference_admissible_sets(xs, p)
    omega = max(a.weight for a in adm)
    chosen = next(a for a in adm if a.weight == omega)
    by_line: dict[tuple[int, ...], list[int]] = {}
    for j in range(len(xs)):
        if j not in chosen.indices:
            line = normalize_line_rep(chosen.span_u.reduce(xs[j]), p)
            by_line.setdefault(line, []).append(j)
    blocks = sorted(by_line.items(), key=lambda item: min(item[1]))
    return WeightReport(
        omega=omega,
        chosen=chosen.indices,
        span_u=chosen.span_u,
        partition=tuple(tuple(members) for _, members in blocks),
        lines=tuple(line for line, _ in blocks),
    )


class ReferenceChecker:
    """Violation tests that re-solve the system for every candidate."""

    def __init__(self, sys_spec, mode, n: int):
        self.sys = sys_spec
        self.mode = mode
        self.n = n
        self.p = sys_spec.p
        self.k = sys_spec.k
        self.m = sys_spec.m
        self.pivots = pivot_columns(sys_spec)
        self.free = [i for i in range(self.k) if i not in self.pivots]
        self.minv = invert_matrix(
            [[r[j] for j in self.pivots] for r in sys_spec.coeffs], self.p)
        self.bs = sys_spec.constant_rows(n)

    def _admits(self, entries: Sequence[tuple[int, ...]]) -> bool:
        mode = self.mode.mode
        if mode == "any":
            return True
        distinct = len(set(entries))
        if mode == "not-all-equal":
            return distinct > 1
        if mode == "distinct":
            return distinct == len(entries)
        if mode == "distinct-count":
            return distinct >= self.mode.ell
        return len(rref_with_pivots(entries, self.p)[0]) >= self.mode.r

    def _solve(self, assign: Sequence[tuple[int, ...]], member_set: frozenset):
        p, n, m = self.p, self.n, self.m
        rhs = []
        for t in range(m):
            row = self.sys.coeffs[t]
            acc = list(self.bs[t])
            for pos, vec in zip(self.free, assign):
                c = row[pos]
                if c:
                    for s in range(n):
                        acc[s] = (acc[s] - c * vec[s]) % p
            rhs.append(acc)
        entries: list = [None] * self.k
        for pos, vec in zip(self.free, assign):
            entries[pos] = vec
        for ridx, col in enumerate(self.pivots):
            mrow = self.minv[ridx]
            vec = tuple(sum(mrow[t] * rhs[t][s] for t in range(m)) % p
                        for s in range(n))
            if vec not in member_set:
                return None
            entries[col] = vec
        return entries

    def violates_with(self, members, x) -> bool:
        """Whether members + x contains an admitted solution using x."""
        pool = list(members) + [x]
        member_set = frozenset(pool)
        for assign in product(pool, repeat=len(self.free)):
            entries = self._solve(assign, member_set)
            if entries is not None and x in entries and self._admits(entries):
                return True
        return False

    def violates_pair(self, members, x, y) -> bool:
        """Whether members + x + y contains an admitted solution using
        both x and y."""
        pool = list(members) + [x, y]
        member_set = frozenset(pool)
        free_count = len(self.free)
        if self.m == 1 and free_count >= 1:
            candidates = (a for a in product(pool, repeat=free_count)
                          if x in a or y in a)
        else:
            candidates = product(pool, repeat=free_count)
        for assign in candidates:
            entries = self._solve(assign, member_set)
            if (entries is not None and x in entries and y in entries
                    and self._admits(entries)):
                return True
        return False


class ReferenceDepthFirst:
    """Depth first scan with an incumbent shared across branches."""

    def __init__(self, checker: ReferenceChecker):
        self.checker = checker
        self.best_size = -1
        self.best_members: tuple = ()
        self.nodes = 0

    def record(self, members) -> None:
        if len(members) > self.best_size:
            self.best_size = len(members)
            self.best_members = tuple(members)

    def run(self, members: list, candidates: list) -> None:
        self.nodes += 1
        self.record(members)
        for i, x in enumerate(candidates):
            if len(members) + len(candidates) - i <= self.best_size:
                break
            members.append(x)
            remaining = [z for z in candidates[i + 1:]
                         if not self.checker.violates_pair(members[:-1], x, z)]
            self.run(members, remaining)
            members.pop()


def reference_exhaustive_max(problem, symmetry=None, point_order=None):
    """(best_size, witness points, nodes) of the reference search, with
    the same root handling, pruning and symmetry anchor."""
    order = problem.point_order() if point_order is None else tuple(point_order)
    if symmetry is None:
        symmetry = problem.sys_spec.homogeneous
    checker = ReferenceChecker(problem.sys_spec, problem.mode, problem.n)
    best = {"size": -1, "members": ()}

    def record(members) -> None:
        if len(members) > best["size"]:
            best["size"] = len(members)
            best["members"] = tuple(members)

    def search_from(base: list, candidates: list) -> int:
        walker = ReferenceDepthFirst(checker)
        walker.run(list(base), list(candidates))
        record(walker.best_members)
        return walker.nodes

    record(())
    nodes = 0
    if symmetry:
        zero = (0,) * problem.n
        if zero in set(order) and not checker.violates_with([], zero):
            record((zero,))
        anchor = next((v for v in order if any(v)), None)
        if anchor is not None and not checker.violates_with([], anchor):
            candidates = [z for z in order
                          if z != anchor
                          and not checker.violates_with([], z)
                          and not checker.violates_pair([], anchor, z)]
            nodes += search_from([anchor], candidates)
    else:
        candidates = [z for z in order if not checker.violates_with([], z)]
        nodes += search_from([], candidates)
    return best["size"], best["members"], nodes


def reference_greedy_passes(problem, restarts: int = 0, rng=None) -> list:
    """The points the reference greedy keeps in each pass: the natural
    order, then one shuffle of it per seeded restart."""
    order = list(problem.point_order())
    checker = ReferenceChecker(problem.sys_spec, problem.mode, problem.n)

    def one_pass(pts) -> list:
        members: list = []
        for x in pts:
            if not checker.violates_with(members, x):
                members.append(x)
        return members

    passes = [one_pass(order)]
    for _ in range(restarts):
        shuffled = list(order)
        rng.shuffle(shuffled)
        passes.append(one_pass(shuffled))
    return passes


def reference_greedy(problem, restarts: int = 0, rng=None):
    """(size, points, nodes) of the reference greedy pass with seeded
    restarts: the first largest pass wins, and every point scanned is a
    node."""
    passes = reference_greedy_passes(problem, restarts, rng)
    best = max(passes, key=len)
    return len(best), tuple(best), len(passes) * len(problem.point_order())


@lru_cache(maxsize=None)
def _degree_sum_counts(p: int, n: int) -> tuple[int, ...]:
    """Entry s: the number of tuples in {0..p-1}^n with sum s, by
    convolving the distribution for n - 1 with one more coordinate."""
    if n == 0:
        return (1,)
    counts = _degree_sum_counts(p, n - 1)
    new = [0] * (len(counts) + p - 1)
    for s, c in enumerate(counts):
        if c:
            for d in range(p):
                new[s + d] += c
    return tuple(new)


def reference_monomial_count(p: int, m: int, k: int, n: int) -> tuple[int, int]:
    """(count, threshold): degree tuples in {0..p-1}^n with sum at most
    threshold = floor(mn(p-1)/k), summed from the convolved table."""
    threshold = (m * n * (p - 1)) // k
    return sum(_degree_sum_counts(p, n)[: threshold + 1]), threshold


def reference_rref_with_pivots(rows, p: int):
    """Reduced row echelon form and pivot columns, as the package
    computed them before the leaner elimination."""
    work = [list(reduce_coords(r, p)) for r in rows]
    if work:
        ncols = len(work[0])
        if any(len(r) != ncols for r in work):
            raise ValueError("rows have unequal lengths")
    else:
        ncols = 0
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        sel = next((r for r in range(row, len(work)) if work[r][col]), None)
        if sel is None:
            continue
        work[row], work[sel] = work[sel], work[row]
        inv = inverse_mod(work[row][col], p)
        work[row] = [(inv * v) % p for v in work[row]]
        piv_row = work[row]
        for r in range(len(work)):
            if r != row and work[r][col]:
                c = work[r][col]
                wr = work[r]
                work[r] = [(wr[j] - c * piv_row[j]) % p for j in range(ncols)]
        pivots.append(col)
        row += 1
        if row == len(work):
            break
    return tuple(tuple(r) for r in work[:row]), tuple(pivots)


def reference_is_interesting(sys_spec, points, index_set, tuple_entries,
                             ell: int) -> bool:
    """The interesting-tuple test as the package ran it before the
    completion was built once per index set: validate, test
    independence, then enumerate the solutions with the tuple pinned."""
    m, k = sys_spec.m, sys_spec.k
    idx = tuple(sorted(set(index_set)))
    if len(idx) != m + 1 or len(tuple_entries) != m + 1:
        raise ValueError(f"need an index set and tuple of size m + 1 = {m + 1}")
    if any(not 0 <= i < k for i in idx):
        raise IndexError("index set out of range")
    if not 1 <= ell <= k:
        raise ValueError(f"ell must lie in 1..{k}")
    xs = [reduce_coords(x, sys_spec.p) for x in tuple_entries]
    if any(x not in points for x in xs):
        raise ValueError("tuple entries must belong to the point set")
    if len(reference_rref_with_pivots(xs, sys_spec.p)[0]) != m + 1:
        return False
    pin = dict(zip(idx, xs))
    need = max(0, ell - m - 1)
    rest = [j for j in range(k) if j not in pin]
    for sol in reference_enumerate_solutions(sys_spec, points, pinned=pin):
        completion = [sol.entries[j] for j in rest]
        if len(set(completion)) >= need:
            return True
    return False


def reference_enumerate_solutions(sys_spec, points, flt=None, pinned=None):
    """Solution enumeration as the package ran it before the single
    completion kernel: for every assignment of the free positions, solve
    each pivot entry from scratch with the inverse pivot minor, then
    re-verify and classify the tuple through ``SolutionTuple.create``."""
    flt = flt or ClassFilter.any()
    p = sys_spec.p
    if points.p != p:
        raise ValueError("point set prime differs from system prime")
    n = points.n
    k, m = sys_spec.k, sys_spec.m
    pin = {}
    if pinned:
        for pos, vec in pinned.items():
            if not 0 <= pos < k:
                raise IndexError(f"pinned position {pos} out of range")
            cs = reduce_coords(vec, p)
            if len(cs) != n:
                raise ValueError("pinned vector dimension mismatch")
            pin[pos] = cs
    pivots = pivot_columns(sys_spec, pinned=pin.keys())
    free = [i for i in range(k) if i not in pivots and i not in pin]
    fixed = [(pos, vec) for pos, vec in pin.items() if pos not in pivots]
    minv = invert_matrix([[r[j] for j in pivots] for r in sys_spec.coeffs], p)
    bs = sys_spec.constant_rows(n)
    base_rhs = []
    for t in range(m):
        row = sys_spec.coeffs[t]
        acc = list(bs[t])
        for pos, vec in fixed:
            c = row[pos]
            if c:
                for s in range(n):
                    acc[s] = (acc[s] - c * vec[s]) % p
        base_rhs.append(acc)
    for assign in product(points.points, repeat=len(free)):
        rhs = []
        for t in range(m):
            row = sys_spec.coeffs[t]
            acc = list(base_rhs[t])
            for pos, vec in zip(free, assign):
                c = row[pos]
                if c:
                    for s in range(n):
                        acc[s] = (acc[s] - c * vec[s]) % p
            rhs.append(acc)
        entries = [None] * k
        for pos, vec in pin.items():
            entries[pos] = vec
        for pos, vec in zip(free, assign):
            entries[pos] = vec
        ok = True
        for ridx, col in enumerate(pivots):
            mrow = minv[ridx]
            vec = tuple(sum(mrow[t] * rhs[t][s] for t in range(m)) % p
                        for s in range(n))
            if (vec != pin[col]) if col in pin else (vec not in points):
                ok = False
                break
            entries[col] = vec
        if not ok:
            continue
        sol = SolutionTuple.create(sys_spec, tuple(entries))
        if flt.admits(sol):
            yield sol


def reference_partitioned_solution_bound(sys_spec, solutions, partition):
    """The cross-solution check as the package ran it before the single
    completion kernel: its own pivots, inverse minor and right-hand
    sides, one free choice of family indices at a time, then every
    combination of the family indices matching each solved pivot entry;
    the first index tuple not constant on some block is the witness."""
    blocks = [tuple(sorted(set(b))) for b in partition]
    if any(len(b) < 2 for b in blocks):
        raise ValueError("every block must have at least two positions")
    covered = sorted(i for b in blocks for i in b)
    if covered != list(range(sys_spec.k)):
        raise ValueError("blocks must partition the variable positions")
    sols = [tuple(reduce_coords(x, sys_spec.p) for x in sol)
            for sol in solutions]
    for sol in sols:
        if not is_solution(sys_spec, sol):
            raise ValueError("family contains a non-solution")
    length = len(sols)
    k, m, p = sys_spec.k, sys_spec.m, sys_spec.p
    if length == 0:
        return PartitionedBoundReport(True, None, 0, None, True)
    n = len(sols[0][0])
    pivots = pivot_columns(sys_spec)
    free = [i for i in range(k) if i not in pivots]
    minv = invert_matrix([[r[j] for j in pivots] for r in sys_spec.coeffs], p)
    bs = sys_spec.constant_rows(n)
    by_position = []
    for pos in range(k):
        table = {}
        for l, sol in enumerate(sols):
            table.setdefault(sol[pos], []).append(l)
        by_position.append(table)
    for free_choice in product(range(length), repeat=len(free)):
        rhs = []
        for t in range(m):
            row = sys_spec.coeffs[t]
            acc = list(bs[t])
            for pos, l in zip(free, free_choice):
                c = row[pos]
                if c:
                    vec = sols[l][pos]
                    for s in range(n):
                        acc[s] = (acc[s] - c * vec[s]) % p
            rhs.append(acc)
        candidate_lists = []
        for ridx, col in enumerate(pivots):
            mrow = minv[ridx]
            vec = tuple(sum(mrow[t] * rhs[t][s] for t in range(m)) % p
                        for s in range(n))
            hits = by_position[col].get(vec)
            if not hits:
                break
            candidate_lists.append(hits)
        else:
            for pivot_choice in product(*candidate_lists):
                idx = [0] * k
                for pos, l in zip(free, free_choice):
                    idx[pos] = l
                for pos, l in zip(pivots, pivot_choice):
                    idx[pos] = l
                if any(len({idx[i] for i in b}) > 1 for b in blocks):
                    return PartitionedBoundReport(False, tuple(idx), length,
                                                  None, None)
    bound = ceiling(sys_spec.p, sys_spec.m, k, n, factor=k).bound
    return PartitionedBoundReport(True, None, length, bound, length <= bound)


def reference_antichain_slice_rank(support, k: int) -> int:
    """Minimum over assignments of support elements to axes of the total
    number of distinct projections, as the package searched it before
    the hitting-set branching: elements in decreasing order of shared
    projections, a greedy incumbent, and a walk assigning each element
    to an axis that prunes once the partial count reaches the incumbent."""
    support = [tuple(e) for e in support]
    share = []
    for e in support:
        share.append(sum(1 for f in support if f != e
                         for ax in range(k) if f[ax] == e[ax]))
    elems = [e for _, e in sorted(zip(share, support),
                                  key=lambda t: (-t[0], t[1]))]
    projections: list[set[int]] = [set() for _ in range(k)]
    best = min(len({e[ax] for e in support}) for ax in range(k))

    def greedy() -> int:
        sets: list[set[int]] = [set() for _ in range(k)]
        for e in elems:
            ax = min(range(k), key=lambda i: (e[i] not in sets[i], len(sets[i])))
            sets[ax].add(e[ax])
        return sum(len(s) for s in sets)

    best = min(best, greedy())

    def walk(idx: int, partial: int) -> None:
        nonlocal best
        if partial >= best:
            return
        if idx == len(elems):
            best = partial
            return
        e = elems[idx]
        axes = sorted(range(k), key=lambda i: e[i] not in projections[i])
        for ax in axes:
            proj = e[ax]
            if proj in projections[ax]:
                walk(idx + 1, partial)
            else:
                projections[ax].add(proj)
                walk(idx + 1, partial + 1)
                projections[ax].remove(proj)

    walk(0, 0)
    return best


def reference_phi(z: float, p: int) -> float:
    """The mean of j under weights z^j on {0, ..., p-1}, as the package
    summed it before the closed form: the powers 1, z, ..., z^(p-1),
    each one product from the last, then two direct sums."""
    powers = [1.0]
    for _ in range(p - 1):
        powers.append(powers[-1] * z)
    return sum(j * powers[j] for j in range(p)) / sum(powers)


def reference_completion_setup(sys_spec, n: int, pinned=()) -> dict:
    """The pivot solver's set-up as the package built it before one
    reduced echelon form gave all of it: the pivots from an elimination
    of the coefficient columns, unpinned ones first, then the inverse
    pivot minor times the constants and times each non-pivot column."""
    p, k, m = sys_spec.p, sys_spec.k, sys_spec.m
    pinned = tuple(pinned)
    order = [j for j in range(k) if j not in pinned] + sorted(set(pinned))
    _, cols = reference_rref_with_pivots(
        [[r[j] for j in order] for r in sys_spec.coeffs], p)
    if len(cols) < m:
        raise DegenerateSystemError("coefficient rank below the equation count")
    pivots = tuple(order[c] for c in cols)
    minv = invert_matrix([[r[j] for j in pivots] for r in sys_spec.coeffs], p)
    bs = sys_spec.constant_rows(n)
    return {
        "pivots": pivots,
        "free": [j for j in range(k) if j not in pivots and j not in pinned],
        "open_pivots": [r for r, j in enumerate(pivots) if j not in pinned],
        "pinned_pivots": [(r, pinned.index(j))
                          for r, j in enumerate(pivots) if j in pinned],
        "const": [tuple(sum(row[t] * bs[t][s] for t in range(m)) % p
                        for s in range(n)) for row in minv],
        "weights": {j: [-sum(row[t] * sys_spec.coeffs[t][j] for t in range(m)) % p
                        for row in minv]
                    for j in range(k) if j not in pivots},
    }


def reference_indicator_support(sys_spec, columns) -> list[tuple[int, ...]]:
    """The index tuples (l_1, ..., l_k), in lexicographic order, whose
    entries columns[i][l_i] solve the system, each decided on its own by
    ``is_solution`` over all L^k tuples."""
    length = len(columns[0])
    return [idx for idx in product(range(length), repeat=sys_spec.k)
            if is_solution(sys_spec, [columns[i][l] for i, l in enumerate(idx)])]


def reference_random_subspace(n: int, d: int, p: int, rng) -> Subspace:
    """A uniformly random d-dimensional subspace of F_p^n, sampled as
    the package did before it drew with ``getrandbits``: a d x n matrix
    of ``randrange(p)`` entries, row by row, redrawn until full rank."""
    if d == 0:
        return Subspace((), n, p)
    while True:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(d)]
        basis, _ = rref_with_pivots(rows, p)
        if len(basis) == d:
            return Subspace(basis, n, p)


def reference_is_solution(sys_spec, entries) -> bool:
    """Whether the k vectors satisfy every equation, one sum per
    equation and coordinate, as ``is_solution`` computed it before the
    column-wise kernel."""
    p = sys_spec.p
    xs = [reduce_coords(x, p) for x in entries]
    if len(xs) != sys_spec.k:
        raise ValueError(f"expected {sys_spec.k} vectors, got {len(xs)}")
    dims = {len(x) for x in xs}
    if len(dims) != 1:
        raise ValueError("solution entries have mixed dimensions")
    n = dims.pop()
    bs = sys_spec.constant_rows(n)
    for row, target in zip(sys_spec.coeffs, bs):
        for s in range(n):
            if sum(c * x[s] for c, x in zip(row, xs)) % p != target[s]:
                return False
    return True
