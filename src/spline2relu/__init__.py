"""spline2relu: exact piecewise-linear-to-ReLU-network compilation and checks."""

from .cpwl import (
    CPwL,
    add,
    basis_fn,
    combine,
    compose,
    hat,
    hat_iterate,
    hat_iterate_value,
    line,
    read_spline,
    reflect,
    relu,
    restrict,
    sup_diff,
    takagi_partial,
    write_spline,
)
from .network import (
    ReluNetwork,
    SpecialNetwork,
    extract_cpwl,
    hat_net,
    param_count,
    rail_layer,
    read_network,
    special_to_standard,
    values_at,
    write_network,
)
from .combinators import (
    compose_nets,
    concat_sum,
    embed_deeper,
    iterate_apply_sum,
    iterate_sum,
    pad_width,
    parallel_sum,
    stack_relu_sum,
    stack_sum,
    zero_special,
)
from .compiler import (
    CompileReport,
    compile_composition,
    compile_fourier_sum,
    compile_self_similar,
    compile_shallow,
    compile_spline,
    compile_sum_of_compositions,
    fourier_atom,
    fourier_oracle,
    representative_chain,
    self_similar_oracle,
    spline_budget,
    takagi_network,
)
from .approx import (
    ExperimentRecord,
    Pattern,
    SplitResult,
    TargetFunction,
    ar_seminorm,
    lip_alpha_approximant,
    measure_sigma,
    pattern_resolution,
    quantize_pattern,
    rate_experiment,
    records_to_csv,
    sobolev_split,
    takagi_family,
)
from .riesz import (
    frame_bounds,
    gram_matrix,
    inner_product,
    lemsum_lhs,
    odd_square_tail,
    operator_gap,
)
from . import errors

__version__ = "0.1.0"
