"""Exact-arithmetic laboratory for ReLU/LTF circuits over the Boolean cube.

Circuits carry rational weights and evaluate exactly; constructions turn
truth tables, threshold gates, and parities into small ReLU circuits;
restrictions collapse bottom layers and measure gate survival; sign-matrix
tools verify block structure, exact rank, and the spectral sign-rank bound;
plane geometry refutes one-hidden-layer representations of max{0, x1, x2}.

The package re-exports what the demos, the benchmark and the README use,
and the error classes; everything else is imported from its submodule.
"""

from .circuit import (
    AffineForm,
    ArityError,
    Circuit,
    CircuitError,
    ContractError,
    Gate,
    GateKind,
    InvariantViolationError,
    ResourceCapError,
    TruthTable,
    WireError,
    affine,
    evaluate,
    forward_on_cube,
    truth_table,
)
from .constructions import (
    ltf_to_relu,
    max0xy_depth2,
    parity_sum_of_relu,
    universal_fourier,
    universal_vertex_indicators,
    walsh_hadamard,
)
from .hardfuncs import andreev_input_size, andreev_layout
from .pwl import (
    first_grid_mismatch,
    grid_max_error,
    nondiff_locus,
    pwl_sum,
    refute_max0xy,
    verify_depth2_max,
)
from .restriction import (
    Restriction,
    andreev_restricted_table,
    apply_restriction,
    collapse_rule,
    random_ltf_of_relu,
    removability,
    sample_andreev_restriction,
    survival_experiment,
)
from .serialize import (
    FormatError,
    circuit_from_json,
    circuit_to_json,
    dump_circuit,
    survival_csv,
    table_from_hex,
)
from .signrank import (
    SignMatrix,
    SpectralNormDiverged,
    VertexOrdering,
    exact_rank,
    forster_lower_bound,
    inner_product_matrix,
    pre_sign_matrix,
    random_cone_circuit,
    sign_pattern,
    sign_rank_is_one,
    top_decomposition,
    verify_block_bound,
)

__version__ = "0.1.0"
