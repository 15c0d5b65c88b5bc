"""Deterministic, seeded fault injection for the modeled runtime.

A :class:`FaultPlan` names the fault *sites* to perturb and at what rate;
a :class:`FaultInjector` turns the plan into reproducible per-site decision
streams (one seeded RNG per site, so the outcome of query ``k`` on a site
never depends on how other sites were queried).  The runtime consults the
injector at well-defined points:

========== =================================================================
site       effect when it fires
========== =================================================================
kernel     transient compute-kernel failure before launch
           (:meth:`VirtualGPU.kernel`) — healed by the retry layer
copy       transient H2D/D2H copy failure (:meth:`VirtualGPU.h2d`/``d2h``)
bitflip    one spMM result value becomes NaN (an ELL-value bit-flip);
           detected by the kernel output check and healed by a retry
oom        device allocation raises :class:`~repro.errors.MemoryFault`
           (``VirtualGPU.alloc``) — healed by adaptive batch splitting
cache      a plan-cache archive read reports corruption — the archive is
           quarantined and the plan rebuilt
cache_io   transient plan-cache disk read failure — retried, then treated
           as a cache miss
spmm       the active spMM backend fails; ``spmm.<backend>`` targets one
           backend specifically — healed by the backend fallback ladder
========== =================================================================

Plans come from the API (``FaultPlan(specs=..., seed=...)``) or from the
``REPRO_FAULTS`` environment variable, e.g.::

    REPRO_FAULTS="seed=7,kernel=0.05,copy=0.01,oom=1:1"

Each entry is ``site=rate[:max_fires[:skip]]``: ``rate`` is the per-query
fire probability, ``max_fires`` caps total fires (empty = unlimited), and
``skip`` arms the site only after that many queries — which is how tests
kill a run at an exact batch boundary.
"""

from __future__ import annotations

import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..errors import SimulationError
from .events import get_resilience_log

#: environment variable holding the process-default fault plan
FAULTS_ENV = "REPRO_FAULTS"

#: recognised fault-site roots (``spmm`` may be qualified: ``spmm.csr``)
FAULT_SITES = ("kernel", "copy", "bitflip", "oom", "cache", "cache_io", "spmm")


@dataclass(frozen=True)
class FaultSpec:
    """One fault site's injection schedule."""

    site: str
    rate: float
    max_fires: int | None = None
    skip: int = 0

    def __post_init__(self) -> None:
        root = self.site.split(".", 1)[0]
        if root not in FAULT_SITES:
            raise SimulationError(
                f"unknown fault site {self.site!r}; roots are {FAULT_SITES}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise SimulationError(f"fault rate {self.rate} outside [0, 1]")
        if self.skip < 0 or (self.max_fires is not None and self.max_fires < 0):
            raise SimulationError("fault skip/max_fires must be non-negative")

    def describe(self) -> str:
        text = f"{self.site}={self.rate:g}"
        if self.max_fires is not None or self.skip:
            text += f":{'' if self.max_fires is None else self.max_fires}"
        if self.skip:
            text += f":{self.skip}"
        return text


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault specs; the unit of configuration."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` syntax (see module docstring)."""
        seed = 0
        specs: list[FaultSpec] = []
        for raw in text.split(","):
            raw = raw.strip()
            if not raw:
                continue
            if "=" not in raw:
                raise SimulationError(f"bad fault entry {raw!r}: expected key=value")
            key, value = raw.split("=", 1)
            key = key.strip()
            if key == "seed":
                seed = int(value)
                continue
            parts = value.split(":")
            try:
                rate = float(parts[0])
                max_fires = (
                    int(parts[1]) if len(parts) > 1 and parts[1] != "" else None
                )
                skip = int(parts[2]) if len(parts) > 2 and parts[2] != "" else 0
            except ValueError as exc:
                raise SimulationError(f"bad fault entry {raw!r}: {exc}") from None
            specs.append(FaultSpec(site=key, rate=rate, max_fires=max_fires, skip=skip))
        return cls(specs=tuple(specs), seed=seed)

    def describe(self) -> str:
        parts = [f"seed={self.seed}"] + [s.describe() for s in self.specs]
        return ",".join(parts)


class FaultInjector:
    """Stateful decision engine for one :class:`FaultPlan`.

    Each site gets an independent RNG stream seeded by ``(plan.seed, site)``
    and independent query/fire counters, so injection is a pure function of
    the plan and the per-site query order — the basis of the determinism
    guarantees in ``tests/test_resilience.py``.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._specs = {spec.site: spec for spec in plan.specs}
        self._rngs: dict[str, np.random.Generator] = {}
        self.queries: dict[str, int] = {}
        self.fires: dict[str, int] = {}

    def _rng_for(self, site: str) -> np.random.Generator:
        rng = self._rngs.get(site)
        if rng is None:
            rng = np.random.default_rng(
                [self.plan.seed & 0xFFFFFFFF, zlib.crc32(site.encode())]
            )
            self._rngs[site] = rng
        return rng

    def _spec_for(self, site: str) -> FaultSpec | None:
        spec = self._specs.get(site)
        if spec is None and "." in site:
            spec = self._specs.get(site.split(".", 1)[0])
        return spec

    def check(self, site: str) -> bool:
        """One injection decision at ``site``; records a ``fault`` event
        (and advances the site's deterministic stream) when it fires."""
        spec = self._spec_for(site)
        if spec is None or spec.rate <= 0.0:
            return False
        query = self.queries.get(site, 0)
        self.queries[site] = query + 1
        if query < spec.skip:
            return False
        # fires are budgeted against the *spec's* site, so ``spmm=1:1``
        # caps the whole family (spmm.csr, spmm.numpy, ...) at one fire
        if (
            spec.max_fires is not None
            and self.fires.get(spec.site, 0) >= spec.max_fires
        ):
            return False
        if float(self._rng_for(site).random()) >= spec.rate:
            return False
        self.fires[spec.site] = self.fires.get(spec.site, 0) + 1
        get_resilience_log().record("fault", site=site, query=query)
        return True

    def draw_index(self, site: str, size: int) -> int:
        """Deterministic index draw from the site's stream (bit-flip targets)."""
        return int(self._rng_for(site).integers(size))

    def counts(self) -> dict:
        return {"queries": dict(self.queries), "fires": dict(self.fires)}


# ---------------------------------------------------------------------------
# process-global injector: explicit plan wins, else REPRO_FAULTS, else none
# ---------------------------------------------------------------------------

_explicit: FaultInjector | None = None
_explicit_set = False
_env_cache: tuple[str | None, FaultInjector | None] = (None, None)


def set_fault_plan(plan: FaultPlan | str | None) -> None:
    """Install a process-wide fault plan (``None`` reverts to the env)."""
    global _explicit, _explicit_set
    if plan is None:
        _explicit, _explicit_set = None, False
        return
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    _explicit, _explicit_set = FaultInjector(plan), True


def get_fault_injector() -> FaultInjector | None:
    """The active injector: the explicitly installed one, else one lazily
    parsed from ``REPRO_FAULTS``, else ``None`` (injection disabled)."""
    if _explicit_set:
        return _explicit
    global _env_cache
    raw = os.environ.get(FAULTS_ENV) or None
    if raw != _env_cache[0]:
        _env_cache = (raw, FaultInjector(FaultPlan.parse(raw)) if raw else None)
    return _env_cache[1]


@contextmanager
def fault_injection(plan: FaultPlan | str | None):
    """Scope a fault plan to a block (a fresh injector per entry, so every
    run under the same plan sees the same decision streams).  ``None``
    leaves whatever is currently active in place."""
    if plan is None:
        yield get_fault_injector()
        return
    global _explicit, _explicit_set
    previous = (_explicit, _explicit_set)
    set_fault_plan(plan)
    try:
        yield _explicit
    finally:
        _explicit, _explicit_set = previous
