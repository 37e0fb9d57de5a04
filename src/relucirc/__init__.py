"""Exact-arithmetic laboratory for ReLU/LTF circuits over the Boolean cube.

Circuits carry rational weights and evaluate exactly; constructions turn
truth tables, threshold gates, and parities into small ReLU circuits;
restrictions collapse bottom layers and measure gate survival; sign-matrix
tools verify block structure, exact rank, and the spectral sign-rank bound;
plane geometry refutes one-hidden-layer representations of max{0, x1, x2}.
"""

from .circuit import (
    AffineForm,
    ArityError,
    Circuit,
    CircuitError,
    ContractError,
    CubeForward,
    Gate,
    GateKind,
    InvariantViolationError,
    ResourceCapError,
    TruthTable,
    WireError,
    affine,
    cube_matrix,
    enumeration_cap,
    evaluate,
    exact,
    forward_on_cube,
    matrix_cap,
    simplify,
    truth_table,
    vertex,
    vertex_index,
)
from .constructions import (
    FourierExpansion,
    linear_as_2relu,
    ltf_to_relu,
    max0xy_depth2,
    parity_sum_of_relu,
    universal_fourier,
    universal_vertex_indicators,
    walsh_hadamard,
)
from .experiments import parity_table, random_agreement_probe, survival_csv, survival_report
from .hardfuncs import (
    AndreevInput,
    ComposedParams,
    andreev,
    andreev_input_size,
    andreev_layout,
    arkadev_nikhil,
    composed_function,
    omb,
)
from .pwl import (
    CanonicalLine,
    LineSet,
    LocusLine,
    PwlSum,
    PwlTerm,
    RefutationReport,
    Witness,
    canonical_line,
    first_grid_mismatch,
    grid_max_error,
    max0xy_one_sided,
    max0xy_smooth_at,
    max0xy_value,
    nondiff_locus,
    pwl_from_depth2,
    pwl_sum,
    pwl_term,
    refute_max0xy,
    verify_depth2_max,
)
from .restriction import (
    CollapseReport,
    Removability,
    Restriction,
    SurvivalRow,
    WeightDistribution,
    andreev_restricted_table,
    apply_restriction,
    bit_to_sign,
    classify_folded,
    fold,
    random_ltf_of_relu,
    removability,
    sample_andreev_restriction,
    sign_to_bit,
    survival_experiment,
)
from .serialize import (
    FormatError,
    circuit_from_json,
    circuit_to_json,
    dump_circuit,
    dump_pwl,
    load_circuit,
    load_pwl,
    pwl_from_json,
    pwl_to_json,
    rational_from_str,
    rational_to_str,
    refutation_to_json,
    table_from_hex,
    table_to_hex,
)
from .signrank import (
    BlockPartition,
    RationalMatrix,
    SignMatrix,
    SpectralNormDiverged,
    VertexOrdering,
    block_partition,
    cone_membership,
    exact_rank,
    float_singular_values,
    forster_lower_bound,
    inner_product_matrix,
    inner_product_sign,
    pre_sign_matrix,
    random_cone_circuit,
    sign_matrix,
    sign_pattern,
    sign_rank_is_one,
    spectral_norm,
    superincreasing_vectors,
    top_decomposition,
    verify_block_bound,
)

__version__ = "0.1.0"
