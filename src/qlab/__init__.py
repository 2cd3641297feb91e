"""Exact computer algebra for Schur Q-functions, neutral-fermion
operators, multiparameter deformations and the associated hierarchy of
Hirota bilinear equations.

All arithmetic is exact rational arithmetic; no floating point is used
anywhere.  See the README for an overview and the command line entry
point ``qlab`` for the main workflows.
"""

from .fermion import (
    apply_omega,
    apply_phi,
    exp_derivation_coeffs,
    is_bkp_tau_bilinear,
    q_lambda,
)
from .hirota import (
    HierarchyReport,
    bkp_check,
    bkp_generate,
    equation_listing,
    hirota_apply,
    hirota_apply_taylor,
    p_to_x,
    x_to_p,
)
from .monomial import (
    EMPTY_MONO,
    Mono,
    graded_monomials,
    mono_degree,
    mono_mul,
    mono_sort_key,
    mono_text,
    mono_weight,
)
from .multiparam import (
    check_multiparam_expansion,
    multiparam_q,
    multiparam_q_via_fermions,
    normalize_index,
)
from .oracle import (
    MAX_VARS,
    eval_powersums,
    genq_expand,
    powersum_image,
    q_lambda_sym,
    q_sym_at,
    qa_sym,
    qa_sym_at,
)
from .ring import (
    Poly,
    Scalar,
    Tensor,
    clear_caches,
    strict_partitions,
    tensor_map,
    tensor_of,
)
from .serialize import poly_from_json_dict, poly_to_json_dict
from .series import (
    ParamSeq,
    complete_sym,
    elem_sym,
    exp_series,
    exp_series_det,
    log_series,
    log_series_by_inversion,
    schur_q_row,
    schur_q_x_list,
    shifted_transition,
)

__version__ = "0.1.0"


__all__ = [
    "EMPTY_MONO",
    "HierarchyReport",
    "MAX_VARS",
    "Mono",
    "ParamSeq",
    "Poly",
    "Scalar",
    "Tensor",
    "apply_omega",
    "apply_phi",
    "bkp_check",
    "bkp_generate",
    "check_multiparam_expansion",
    "clear_caches",
    "complete_sym",
    "elem_sym",
    "equation_listing",
    "eval_powersums",
    "exp_derivation_coeffs",
    "exp_series",
    "exp_series_det",
    "genq_expand",
    "graded_monomials",
    "hirota_apply",
    "hirota_apply_taylor",
    "is_bkp_tau_bilinear",
    "log_series",
    "log_series_by_inversion",
    "mono_degree",
    "mono_mul",
    "mono_sort_key",
    "mono_text",
    "mono_weight",
    "multiparam_q",
    "multiparam_q_via_fermions",
    "normalize_index",
    "p_to_x",
    "poly_from_json_dict",
    "poly_to_json_dict",
    "powersum_image",
    "q_lambda",
    "q_lambda_sym",
    "q_sym_at",
    "qa_sym",
    "qa_sym_at",
    "schur_q_row",
    "schur_q_x_list",
    "shifted_transition",
    "strict_partitions",
    "tensor_map",
    "tensor_of",
    "x_to_p",
]
