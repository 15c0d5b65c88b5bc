"""ELL sparse format, the DD-to-ELL converter, and the spMM kernel math."""

from .convert import DEFAULT_TAU, ell_from_dd, ell_from_flat_gpu
from .format import ELLMatrix, ell_from_dense
from .persist import (
    CompiledPlan,
    load_compiled_plan,
    plan_fingerprint,
    save_compiled_plan,
)
from .spmm import (
    GatherPlan,
    build_apply_plans,
    ell_spmm,
    ell_spmm_loop,
    gather_plan,
    spmm_bytes,
    spmm_macs,
)

__all__ = [
    "build_apply_plans",
    "CompiledPlan",
    "DEFAULT_TAU",
    "ell_from_dd",
    "ell_from_dense",
    "ell_from_flat_gpu",
    "ell_spmm",
    "ell_spmm_loop",
    "ELLMatrix",
    "gather_plan",
    "GatherPlan",
    "load_compiled_plan",
    "plan_fingerprint",
    "save_compiled_plan",
    "spmm_bytes",
    "spmm_macs",
]
