"""Design-choice ablation: ELL vs CSR vs COO as the BQCS kernel format.

Not a paper figure, but the measurement behind the paper's one-sentence
justification in Section 3.2: quantum gate matrices have near-uniform NZR
(Table 1), which makes ELL's padding free while CSR pays row-pointer
indirection and COO pays atomic scatter contention.  The experiment sums
modeled kernel time over the fused plan of each circuit and normalizes by
the ELL time.
"""

from __future__ import annotations

import numpy as np

from ...circuit.generators import make_circuit
from ...dd.manager import DDManager
from ...ell.alternatives import (
    coo_from_ell,
    coo_kernel_time,
    csr_from_ell,
    csr_kernel_time,
    ell_kernel_time,
)
from ...ell.convert import ell_from_dd
from ...fusion.bqcs import bqcs_fusion
from ...gpu.spec import GpuSpec
from ..tables import print_table

CIRCUITS = {
    "small": (("vqe", 8), ("supremacy", 8), ("graphstate", 8)),
    "medium": (("vqe", 14), ("supremacy", 12), ("graphstate", 14)),
    "paper": (("vqe", 16), ("supremacy", 12), ("graphstate", 16)),
}


def run(scale: str = "small", batch_size: int = 256) -> list[dict]:
    spec = GpuSpec()
    rows_out = []
    for family, n in CIRCUITS.get(scale, CIRCUITS["small"]):
        circuit = make_circuit(family, n)
        mgr = DDManager(n)
        plan = bqcs_fusion(mgr, circuit)
        t_ell = t_csr = t_coo = 0.0
        for fused in plan.gates:
            ell = ell_from_dd(fused.dd, n)
            csr = csr_from_ell(ell)
            coo = coo_from_ell(ell)
            t_ell += ell_kernel_time(spec, n, batch_size, ell.width)
            t_csr += csr_kernel_time(spec, n, batch_size, csr.row_nnz())
            t_coo += coo_kernel_time(spec, n, batch_size, coo.nnz)
        rows_out.append(
            {
                "family": family,
                "num_qubits": n,
                "ell_s": t_ell,
                "csr_s": t_csr,
                "coo_s": t_coo,
                "csr_vs_ell": t_csr / t_ell,
                "coo_vs_ell": t_coo / t_ell,
            }
        )
    return rows_out


def main(scale: str = "small") -> list[dict]:
    rows = run(scale)
    print_table(
        f"Format ablation: modeled kernel time normalized by ELL (scale={scale})",
        ["circuit", "n", "ELL", "CSR", "COO"],
        [
            [
                r["family"],
                r["num_qubits"],
                "1.00",
                f"{r['csr_vs_ell']:.2f}",
                f"{r['coo_vs_ell']:.2f}",
            ]
            for r in rows
        ],
    )
    return rows


if __name__ == "__main__":
    import sys

    main(sys.argv[1] if len(sys.argv) > 1 else "small")
