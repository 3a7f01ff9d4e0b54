"""Exact experiments with systems of linear equations over F_p.

The package studies point sets A inside F_p^n through the solutions
(x_1, ..., x_k) in A^k of a fixed m x k coefficient system: exact
finite-field linear algebra, solution enumeration and classification,
a weight function on solution tuples built from admissible index sets,
a slice rank toolbox for indicator tensors, subspace sampling with
per-structure deletion steps, and exhaustive extremal-set search.
Everything is exact (integers and rationals) except the one real
optimization producing the set-size base constant, which is solved to
a stated tolerance.
"""

from .errors import CapExceededError, DegenerateSystemError
from .fplinalg import (
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
    inverse_mod,
    is_prime,
    normalize_line_rep,
    random_subspace,
    rank,
    read_vector_file,
    rref_with_pivots,
    span,
    write_vector_file,
)
from .linsystem import (
    ClassFilter,
    InterestingCountReport,
    PointSet,
    SolutionTuple,
    SystemSpec,
    ValidationReport,
    count_interesting_tuples,
    count_solutions,
    enumerate_solutions,
    interesting_tuples,
    is_interesting,
    is_solution,
    pivot_columns,
    read_system_file,
    validate,
    write_system_file,
)
from .sampling import (
    ContainmentCheck,
    ContainmentProbability,
    FamilyReport,
    SamplingStepReport,
    WeightCountReport,
    containment_probability,
    count_weight_solutions,
    expected_intersection_size,
    max_disjoint_span_family,
    proof_dimension_distinct,
    proof_dimension_weight,
    sampling_step_distinct,
    sampling_step_weight,
    verify_containment,
)
from .search import (
    AvoidanceProblem,
    BoundReport,
    SearchResult,
    exhaustive_max,
    greedy_lower_bound,
    verify_theorem_bound,
)
from .seeds import derive_seed, spawn
from .slicerank import (
    Ceiling,
    GammaResult,
    MonomialCountResult,
    OrderFamily,
    PartitionedBoundReport,
    Tensor,
    antichain_slice_rank,
    ceiling,
    corollary_orders,
    gamma,
    indicator_tensor,
    is_antichain,
    monomial_count,
    partitioned_solution_bound,
    read_tensor_file,
    verify_polynomial_identity,
    write_tensor_file,
)
from .weights import (
    AdmissibleSet,
    PartitionReport,
    WeightPropertyReport,
    WeightReport,
    admissible_sets,
    partition_structure,
    verify_weight_properties,
    weight,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
