"""Syndrome decoding over prime fields under additive weight functions.

Library layout:
  fieldlin   exact F_q vectors, matrices, permutations, partial elimination
  weights    weight tables, sphere counts/exponents, uniform sphere sampling
  merge      sort-and-match list joining on coordinate subsets
  cmsd       candidate-generator back ends (prange, dumer, two merge trees)
  isd        instance generation and the outer decoding loop
  estimator  asymptotic classical/quantum work-factor exponents
  cli        command-line front end
"""

from .cmsd import (
    CmsdDescription,
    CmsdInfeasibleError,
    cmsd_dumer,
    cmsd_prange,
    cmsd_wagner_v1,
    cmsd_wagner_v2_build,
)
from .estimator import (
    AlgoPoint,
    CodeParams,
    HardestResult,
    InfeasibleParameterError,
    WorkFactors,
    hardest_instance,
    local_maxima_weights,
    optimize_point,
    sweep,
    work_factors,
)
from .fieldlin import (
    FqMatrix,
    FqVector,
    Permutation,
    apply_permutation,
    mat_vec_mul,
    partial_gaussian_elim,
    random_full_rank_matrix,
    rank,
)
from .isd import (
    IsdParams,
    SdInstance,
    SolveReport,
    generate_instance,
    isd_solve,
    verify_solution,
)
from .merge import IndexedList, MergeOverflowError, merge
from .weights import (
    EntropyProfile,
    SphereEnumerator,
    WeightFunction,
    normalized_weight,
    sample_uniform_weight_w,
    sphere_count_exact,
    sphere_exponent,
    sphere_exponent_many,
    vector_weight,
)

__version__ = "0.1.0"
