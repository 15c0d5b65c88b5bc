"""Graceful degradation: the spMM backend fallback ladder.

The three spMM backends implement identical math at different speeds
(``csr`` → ``numpy`` → ``loop``, fastest first).  A :class:`BackendLadder`
starts at the fastest available backend and *demotes permanently* (for the
run that owns it) whenever the current backend fails, recording a
``demotion`` event per step — so a broken SciPy build, an injected backend
fault, or a runtime error in the fast path degrades throughput instead of
killing the batch.  Each simulator run owns one ladder
(``RunObservation.ladder`` in :mod:`repro.sim.base`), whose ``backend`` and
``demoted`` every run reports in ``stats["resilience"]``.  The ``loop``
rung stays: without SciPy the ladder starts at ``numpy``, and ``loop`` is
then the only backend left to demote to.

The companion degradation mechanism — OOM-aware adaptive batch splitting —
lives in the simulators themselves (see ``BQSimSimulator._execute_resilient``),
because splitting must recompute buffer assignments.
"""

from __future__ import annotations

import numpy as np

from ..errors import ReproError
from .events import get_resilience_log
from .faults import get_fault_injector

#: the demotion order, fastest first
BACKEND_CHAIN = ("csr", "numpy", "loop")

#: exception types that demote the current backend (anything else propagates)
_DEMOTABLE = (ReproError, RuntimeError, FloatingPointError, MemoryError)


class BackendLadder:
    """Per-run spMM backend state with demote-on-failure semantics.

    ``demoted`` turns true when :meth:`apply` drops a failed backend, not
    when the ladder merely starts below ``csr`` (an install without SciPy,
    or ``REPRO_SPMM_BACKEND=numpy``).
    """

    def __init__(self, start: str | None = None):
        if start is None:
            # lazy import: repro.ell.spmm imports this package's fault hooks
            from ..ell.spmm import default_backend

            start = default_backend()
        if start not in BACKEND_CHAIN:
            start = BACKEND_CHAIN[-1]
        self._chain = list(BACKEND_CHAIN[BACKEND_CHAIN.index(start):])
        #: true once a failed backend has been dropped
        self.demoted = False

    @property
    def backend(self) -> str:
        """The currently active backend."""
        return self._chain[0]

    def apply(
        self,
        ell,
        states: np.ndarray,
        out: np.ndarray | None = None,
    ):
        """``ell_spmm`` through the ladder, demoting until a backend works.

        When even the reference loop fails, the last error propagates — by
        then it is a genuine input problem, not a backend one.
        """
        from ..ell.spmm import ell_spmm

        while True:
            try:
                return ell_spmm(ell, states, out=out, backend=self._chain[0])
            except _DEMOTABLE as exc:
                if len(self._chain) == 1:
                    raise
                failed = self._chain.pop(0)
                self.demoted = True
                get_resilience_log().record(
                    "demotion",
                    site=f"spmm.{failed}",
                    to=self._chain[0],
                    reason=str(exc),
                )


def apply_with_recovery(
    ladder: BackendLadder,
    ell,
    states: np.ndarray,
    session=None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Ladder apply plus bit-flip (non-finite) detection and re-apply.

    Host-side simulators have no device-kernel wrapper to retry for them, so
    this helper re-runs the pure apply when the result carries injected
    non-finite values, bounded by the optional
    :class:`~repro.resilience.retry.RetrySession`.  When retries are
    exhausted the corrupted block is returned as-is for the health guard to
    report.  The non-finite scan only runs while an injector is active.
    """
    injector = get_fault_injector()
    attempt = 0
    while True:
        attempt += 1
        result = ladder.apply(ell, states, out=out)
        if injector is None or bool(np.all(np.isfinite(result))):
            return result
        if session is None or session.next_backoff("bitflip", attempt) is None:
            return result
