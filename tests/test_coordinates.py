"""Every public entry point that takes vectors reduces their coordinates
mod p: unreduced and negative coordinates give the same result as their
reductions, so (4,) and (1,) are the same point of F_3^1."""

import io

import pytest

from fpsystems import (
    AvoidanceProblem,
    ClassFilter,
    PointSet,
    SolutionTuple,
    SystemSpec,
    enumerate_solutions,
    exhaustive_max,
    is_interesting,
    is_solution,
    max_disjoint_span_family,
    normalize_line_rep,
    partitioned_solution_bound,
    rank,
    span,
    verify_polynomial_identity,
    verify_weight_properties,
    weight,
    write_vector_file,
)

P = 3
AP3 = SystemSpec.make([(1, 1, 1)], P)
K4 = SystemSpec.make([(1, 1, 2, 2)], P)
FULL = PointSet.full_space(2, P)
NONZERO = PointSet.full_space(2, P, include_zero=False)
A = PointSet.make([(1, 0), (0, 1), (2, 2)], P)
LINE = span([(1, 1)], P)
# solves x + y + z = 0 over F_3^2 with three distinct entries
SOL = ((1, 0), (2, 1), (0, 2))


def _write(vectors):
    buf = io.StringIO()
    write_vector_file(buf, vectors, P, 2)
    return buf.getvalue()


# name -> (vectors, possibly nested, and the call that takes them)
CASES = {
    "PointSet.make": (SOL, lambda vs: PointSet.make(vs, P)),
    "PointSet in": (((1, 0), (2, 1), (2, 2)), lambda vs: [v in A for v in vs]),
    "enumerate_solutions pinned": (
        {0: (1, 0), 2: (2, 2)},
        lambda pin: [s.entries for s in enumerate_solutions(
            AP3, FULL, ClassFilter.distinct(), pinned=pin)]),
    "is_solution": (SOL, lambda vs: is_solution(AP3, vs)),
    "SolutionTuple.create": (((1,), (1,), (1,)),
                             lambda vs: SolutionTuple.create(AP3, vs)),
    "is_interesting": (((1, 0), (2, 1)),
                       lambda vs: is_interesting(AP3, NONZERO, (0, 1), vs, 3)),
    "weight": (SOL, lambda vs: weight(vs, P)),
    "verify_weight_properties": (
        SOL, lambda vs: verify_weight_properties(vs, P, sys_spec=AP3)),
    "span": (((1, 2), (2, 1)), lambda vs: span(vs, P)),
    "Subspace.reduce": (((1, 0), (2, 2), (0, 1)),
                        lambda vs: [LINE.reduce(v) for v in vs]),
    "Subspace.contains": (((1, 0), (2, 2), (0, 1)),
                          lambda vs: [(LINE.contains(v), v in LINE) for v in vs]),
    "rank": (((1, 2), (2, 1)), lambda vs: rank(vs, P)),
    "normalize_line_rep": (((2, 1), (0, 2)),
                           lambda vs: [normalize_line_rep(v, P) for v in vs]),
    "write_vector_file": (SOL, _write),
    "exhaustive_max point_order": (
        tuple(reversed(FULL.points)),
        lambda vs: exhaustive_max(
            AvoidanceProblem(AP3, ClassFilter.not_all_equal(), 2),
            point_order=vs)),
    "partitioned_solution_bound": (
        (((1, 0),) * 3, ((0, 1),) * 3),
        lambda sols: partitioned_solution_bound(AP3, sols, [(0, 1, 2)])),
    "verify_polynomial_identity": (
        [[(0,), (1,), (2,)]] * 3,
        lambda cols: verify_polynomial_identity(AP3, cols)),
    "max_disjoint_span_family": (
        ((1, 0),),
        lambda fixed: max_disjoint_span_family(K4, NONZERO, (0,), fixed, 5)),
}


def _lift(data, sign: int):
    """``data`` with the i-th vector met (depth first) shifted by sign * p
    times i + j + 1 at coordinate j, so no two vectors share a shift."""
    count = 0

    def walk(obj):
        nonlocal count
        if isinstance(obj, dict):
            return {key: walk(value) for key, value in obj.items()}
        if all(isinstance(c, int) for c in obj):
            count += 1
            return tuple(c + sign * P * (count + j) for j, c in enumerate(obj))
        return type(obj)(walk(x) for x in obj)

    return walk(data)


@pytest.mark.parametrize("sign", [1, -1], ids=["unreduced", "negative"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_coordinates_reduced_at_every_entry_point(name, sign):
    data, call = CASES[name]
    lifted = _lift(data, sign)
    assert lifted != data
    assert call(lifted) == call(data)
