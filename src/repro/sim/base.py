"""Common simulator API, result types and the run lifecycle.

Every simulator (BQSim, multi-GPU BQSim and the three baselines) implements
:meth:`BatchSimulator.run` over one circuit and a stream of input batches.
Results carry both the *numeric outputs* (exact amplitudes, when
``execute=True``) and the *modeled runtime* from the calibrated device model
(see :mod:`repro.gpu.spec`), which is what the bench harness reports —
letting experiments run at the paper's full scale where pure-Python numerics
would be prohibitive.

The run lifecycle is shared too: :meth:`BatchSimulator.run` scopes the
simulator's fault plan around its ``_run``, and one
:class:`RunObservation` per run starts the wall clock, resolves the array
engine, opens the ``<simulator>.run`` span, times the canonical stages and
builds the :class:`SimulationResult` with every stats block — so a
simulator's ``_run`` holds only its model and its numerics.
"""

from __future__ import annotations

import abc
import os
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

try:  # POSIX advisory file locking for the shared disk tier
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

import numpy as np

from ..circuit import Circuit, InputBatch, generate_batches
from ..dd.manager import DDManager
from ..ell.convert import ell_from_dd
from ..ell.format import ELLMatrix
from ..ell.persist import plan_fingerprint
from ..ell.spmm import build_apply_plans, default_backend
from ..errors import SimulationError
from ..fusion.plan import FusionPlan
from ..gpu.engine import Timeline
from ..gpu.power import PowerReport
from ..gpu.spec import CpuSpec, GpuSpec
from ..kernels.engine import ArrayEngine, get_engine
from ..obs import CANONICAL_STAGES, get_metrics, get_tracer
from ..resilience import (
    BackendLadder,
    FaultPlan,
    HealthPolicy,
    RetryPolicy,
    RetrySession,
    apply_with_recovery,
    check_state_block,
    fault_injection,
    get_resilience_log,
)

#: environment variable naming the default disk tier of every PlanCache;
#: unset means memory-only caching
PLAN_CACHE_ENV = "REPRO_PLAN_CACHE"


@dataclass
class BatchSpec:
    """Describes the input stream without materializing it.

    A run over ``num_batches`` batches of ``batch_size`` random input
    state vectors each, generated deterministically from ``seed`` — so
    two simulators given the same spec see bit-identical inputs, which
    is what makes cross-simulator validation exact.  Example::

        spec = BatchSpec(num_batches=200, batch_size=256)  # the paper's load
        assert spec.num_inputs == 51200
    """

    num_batches: int
    batch_size: int
    seed: int = 0

    @property
    def num_inputs(self) -> int:
        return self.num_batches * self.batch_size


@dataclass
class SimulationResult:
    """Outcome of one batch-simulation run."""

    simulator: str
    circuit_name: str
    num_qubits: int
    spec: BatchSpec
    modeled_time: float  # seconds, from the device model
    breakdown: dict[str, float] = field(default_factory=dict)
    power: PowerReport | None = None
    timeline: Timeline | None = None
    outputs: list[np.ndarray] | None = None
    wall_time: float = 0.0
    stats: dict = field(default_factory=dict)

    @property
    def modeled_time_ms(self) -> float:
        return self.modeled_time * 1e3

    def output_batch(self, index: int) -> np.ndarray:
        if self.outputs is None:
            raise SimulationError("run with execute=True to obtain amplitudes")
        return self.outputs[index]


class BatchSimulator(abc.ABC):
    """Interface implemented by BQSim and the baseline simulators.

    Holds the constructor fields every simulator sets, runs the
    simulator's ``_run`` under its fault plan, and carries the three
    pieces the baselines share: the cached fusion lookup
    (:meth:`_fused`), their DD-to-ELL conversion (:meth:`_ells`) and the
    host-side execute loop of the per-input baselines
    (:meth:`_execute_per_input`).
    """

    name: str = "abstract"

    def __init__(
        self,
        gpu: GpuSpec | None = None,
        cpu: CpuSpec | None = None,
        retry: RetryPolicy | None = None,
        faults: FaultPlan | str | None = None,
        health: HealthPolicy | str | None = "warn",
        engine: "str | ArrayEngine | None" = None,
    ):
        self.gpu = gpu or GpuSpec()
        self.cpu = cpu or CpuSpec()
        #: compiled plans keyed by circuit structure (memory tier, plus the
        #: ``$REPRO_PLAN_CACHE`` disk tier for simulators that persist)
        self._plans = PlanCache()
        #: retry policy for transient kernel/copy/cache faults (None = defaults)
        self.retry = retry
        #: fault plan scoped to every run of this simulator (None = the
        #: process-wide plan, i.e. set_fault_plan() or $REPRO_FAULTS)
        self.faults = faults
        #: per-batch numerical health guard (off/warn/renormalize/fail)
        self.health = HealthPolicy.coerce(health)
        #: array-engine designator; resolved per run so ``REPRO_ENGINE``
        #: and :func:`repro.kernels.set_default_engine` changes apply
        self.engine = engine

    def run(
        self,
        circuit: Circuit,
        spec: BatchSpec,
        batches: Sequence[InputBatch] | None = None,
        execute: bool = True,
    ) -> SimulationResult:
        """Simulate ``circuit`` over the input stream described by ``spec``.

        ``batches`` overrides the generated stream; ``execute=False`` skips
        all numerics (and array materialization) and returns model-only
        timings, enabling paper-scale experiments.  The whole run executes
        under the simulator's fault plan (when one was configured), so
        injected faults, retries and degradation are scoped to this call.
        """
        with fault_injection(self.faults):
            return self._run(circuit, spec, batches, execute)

    @abc.abstractmethod
    def _run(
        self,
        circuit: Circuit,
        spec: BatchSpec,
        batches: Sequence[InputBatch] | None,
        execute: bool,
    ) -> SimulationResult:
        """One run's model and numerics: opens one :class:`RunObservation`
        and returns the result it builds."""

    def _resolve_batches(
        self,
        circuit: Circuit,
        spec: BatchSpec,
        batches: Sequence[InputBatch] | None,
        execute: bool,
    ) -> list[InputBatch] | None:
        if not execute:
            return None
        if batches is None:
            return list(
                generate_batches(
                    circuit.num_qubits, spec.num_batches, spec.batch_size, spec.seed
                )
            )
        batches = list(batches)
        if len(batches) != spec.num_batches:
            raise SimulationError(
                f"expected {spec.num_batches} batches, got {len(batches)}"
            )
        for batch in batches:
            if batch.num_qubits != circuit.num_qubits:
                raise SimulationError("batch width does not match circuit")
            if batch.batch_size != spec.batch_size:
                raise SimulationError("batch size does not match spec")
        return batches

    # -- the pieces the baselines share ----------------------------------------

    def _fused(
        self,
        obs: "RunObservation",
        fuse: Callable[[DDManager, Circuit], FusionPlan],
        extra: tuple,
    ) -> dict:
        """The run circuit's cached fusion plan, booked under ``fusion``.

        ``fuse(mgr, circuit)`` builds the plan on a miss; ``extra`` names
        the settings that change what it builds (part of the cache key).
        The entry's ``ells`` stay ``None`` until :meth:`_ells` converts.
        """

        def build():
            mgr = DDManager(obs.circuit.num_qubits)
            return {"mgr": mgr, "plan": fuse(mgr, obs.circuit), "ells": None}

        with obs.stage("fusion") as span:
            prepared = self._plans.get(obs.circuit, build, extra=extra)
            span.set(fused_gates=len(prepared["plan"].gates))
        return prepared

    @staticmethod
    def _ells(prepared: dict) -> list[ELLMatrix]:
        """One ELL matrix per fused gate, converted on the plan's first
        executed run and kept with the cached plan."""
        if prepared["ells"] is None:
            plan: FusionPlan = prepared["plan"]
            prepared["ells"] = [
                ell_from_dd(fused.dd, plan.num_qubits) for fused in plan.gates
            ]
        return prepared["ells"]

    def _execute_per_input(
        self,
        obs: "RunObservation",
        prepared: dict,
        batches: Sequence[InputBatch] | None,
    ) -> list[np.ndarray] | None:
        """Stages ``io``, ``convert`` and ``execute`` of the per-input
        baselines (FlatDD, Aer); ``None`` for a model-only run.

        Each input batch runs on the host through the plan's compiled
        gather plans (consecutive width-1 kernels composed, compiled under
        ``convert``), every kernel through the run's fallback ladder with
        bit-flip recovery, and is health-checked on the way out.
        """
        with obs.stage("io"):
            batches = self._resolve_batches(
                obs.circuit, obs.spec, batches, obs.execute
            )
        if batches is None:
            return None
        with obs.stage("convert"):
            apply_plans = build_apply_plans(self._ells(prepared))
        eng, ladder = obs.engine, obs.ladder
        with obs.stage("execute") as span:
            session = RetrySession(self.retry, seed=obs.spec.seed)
            outputs = []
            for ib, batch in enumerate(batches):
                states = (
                    eng.from_host(batch.states) if eng.is_device else batch.states
                )
                for apply_plan in apply_plans:
                    states = apply_with_recovery(
                        ladder, apply_plan, states, session, engine=eng
                    )
                outputs.append(
                    check_state_block(
                        eng.to_host(states), self.health,
                        label=f"{obs.circuit.name} batch {ib}",
                    )
                )
            span.set(num_kernels=len(apply_plans), backend=ladder.backend)
        return outputs


class PlanCache:
    """Per-simulator cache of fusion artifacts keyed by circuit *structure*.

    Experiments sweep batch counts and ablation flags over one circuit;
    fusion is a deterministic function of the circuit and the fusion
    settings, so entries are keyed by :meth:`Circuit.fingerprint` plus a
    simulator-supplied ``extra`` tuple of settings.  Structural keying means
    two equal circuits share one plan regardless of object identity, an
    in-place edit of a circuit is correctly detected as a different key,
    and a recycled ``id()`` can never resurrect a stale plan — the three
    hazards of the previous ``id(circuit)`` scheme.

    ``cache_dir`` (or the ``REPRO_PLAN_CACHE`` environment variable) adds a
    disk tier: simulators that support it serialize compiled plans to
    ``<cache_dir>/<key>.npz`` so a *new process* skips stages 1-2 too.  The
    cache itself stays serialization-agnostic; it only hands out paths.
    """

    def __init__(self, cache_dir: str | Path | None = None) -> None:
        self._entries: dict[str, object] = {}
        if cache_dir is None:
            cache_dir = os.environ.get(PLAN_CACHE_ENV) or None
        self.cache_dir = Path(cache_dir) if cache_dir else None
        #: lookup accounting: memory hits, disk-tier hits, full builds
        self.hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.quarantined = 0

    @staticmethod
    def key(circuit: Circuit, extra: tuple = ()) -> str:
        """Structural cache key: circuit fingerprint + hashed settings.

        Delegates to :func:`repro.ell.persist.plan_fingerprint`, the one
        canonical definition of a compiled plan's identity (shared with the
        serving layer's coalescer).
        """
        return plan_fingerprint(circuit, extra)

    def get(self, circuit: Circuit, build, extra: tuple = ()):
        """Memory-tier lookup; ``build()`` fills a miss."""
        key = self.key(circuit, extra)
        if key not in self._entries:
            self.note_lookup("built")
            self._entries[key] = build()
        else:
            self.note_lookup("memory")
        return self._entries[key]

    def note_lookup(self, source: str) -> None:
        """Record one lookup outcome: ``memory``, ``disk``, or ``built``.

        Simulators that bypass :meth:`get` (tiered peek/load/build, like
        BQSim's compiled-plan path) call this so hit/miss accounting stays
        accurate; the outcome is mirrored into the global metrics registry
        as ``plan_cache.{hits,disk_hits,misses}``.
        """
        if source == "memory":
            self.hits += 1
            metric = "plan_cache.hits"
        elif source == "disk":
            self.disk_hits += 1
            metric = "plan_cache.disk_hits"
        else:
            self.misses += 1
            metric = "plan_cache.misses"
        get_metrics().inc(metric)

    def stats_dict(self) -> dict[str, int]:
        """Lookup counters for ``SimulationResult.stats["plan_cache"]``."""
        return {
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "quarantined": self.quarantined,
        }

    def peek(self, key: str):
        return self._entries.get(key)

    def put(self, key: str, value) -> None:
        self._entries[key] = value

    # -- disk tier ----------------------------------------------------------

    def disk_path(self, key: str) -> Path | None:
        """Path of the disk entry for ``key`` (``None`` without a disk tier).

        Creates the cache directory on first use.
        """
        if self.cache_dir is None:
            return None
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        return self.cache_dir / f"{key}.npz"

    @contextmanager
    def build_lock(self, key: str):
        """Cross-process exclusive section for compiling plan ``key``.

        When several OS processes share one disk tier (the service's
        process worker pool points every worker at the same ``cache_dir``),
        each fingerprint must be compiled exactly once fleet-wide: the
        first worker to miss takes an advisory ``flock`` on
        ``<cache_dir>/<key>.lock``, builds, and writes the archive; the
        others block on the lock, re-check the disk tier, and load the
        winner's archive instead of re-fusing.  Without a disk tier (or on
        platforms without ``fcntl``) this is a no-op — in-process callers
        pay nothing.
        """
        path = self.disk_path(key)
        if path is None or fcntl is None:
            yield
            return
        lock_path = path.with_suffix(".lock")
        try:
            handle = open(lock_path, "a+")
        except OSError:
            yield  # unlockable (read-only dir): fall back to racy writes
            return
        try:
            fcntl.flock(handle, fcntl.LOCK_EX)
            yield
        finally:
            try:
                fcntl.flock(handle, fcntl.LOCK_UN)
            finally:
                handle.close()

    def disk_entries(self) -> list[Path]:
        """Every plan archive currently in the disk tier.

        The glob is non-recursive, so quarantined archives moved into the
        ``corrupt/`` subdirectory are invisible here.
        """
        if self.cache_dir is None or not self.cache_dir.is_dir():
            return []
        return sorted(self.cache_dir.glob("*.npz"))

    def quarantine(self, path: Path, reason: str) -> Path | None:
        """Move an unreadable disk entry into ``<cache_dir>/corrupt/``.

        A corrupt archive must not be silently deleted (it is evidence of a
        writer bug or disk fault) nor left in place (every future process
        would retry and re-fail on it).  Quarantining removes it from the
        lookup path while preserving the bytes; the event is counted,
        mirrored to metrics (``plan_cache.corrupt``), recorded in the
        resilience log, and surfaced as a :class:`UserWarning`.
        """
        target: Path | None = None
        try:
            if path.is_file():
                quarantine_dir = path.parent / "corrupt"
                quarantine_dir.mkdir(parents=True, exist_ok=True)
                target = quarantine_dir / path.name
                path.replace(target)
        except OSError:
            # quarantine is best-effort: never turn cache cleanup into a
            # second failure
            target = None
        self.quarantined += 1
        get_metrics().inc("plan_cache.corrupt")
        get_resilience_log().record(
            "quarantine", site="cache", path=path.name, reason=reason
        )
        warnings.warn(
            f"quarantined corrupt plan archive {path.name!r}: {reason}",
            UserWarning,
            stacklevel=2,
        )
        return target

    def clear(self, disk: bool = False) -> None:
        """Drop the memory tier; ``disk=True`` also deletes the archives."""
        self._entries.clear()
        if disk:
            for path in self.disk_entries():
                path.unlink()


class RunObservation:
    """One simulator run: its clock, engine, ladder, span, stages and result.

    A simulator's ``_run`` opens one per run and returns what it builds::

        with RunObservation(self, circuit, spec, execute) as obs:
            with obs.stage("fusion") as span:
                ...
        return obs.result(modeled_time, {"plan": plan}, power=power)

    Construction starts the wall clock, resolves the array :attr:`engine`,
    creates the run's spMM fallback :attr:`ladder` (``None`` when
    model-only) and marks the process-global tracer, metrics and
    resilience log, so the result reports only this run's records.  The
    ``with`` block is the ``<simulator>.run`` span; ``span_attrs`` join
    its attributes.
    """

    def __init__(
        self, sim: BatchSimulator, circuit: Circuit, spec: BatchSpec,
        execute: bool, **span_attrs,
    ) -> None:
        self._wall_start = time.perf_counter()
        self._sim = sim
        self.circuit = circuit
        self.spec = spec
        self.execute = execute
        self.engine: ArrayEngine = get_engine(sim.engine)
        #: one fallback ladder per run: a backend that failed once stays
        #: demoted for every later kernel of the run
        self.ladder = BackendLadder() if execute else None
        self.tracer = get_tracer()
        self._metrics = get_metrics()
        self._log = get_resilience_log()
        self._span_mark = self.tracer.mark()
        self._metric_mark = self._metrics.mark()
        self._log_mark = self._log.mark()
        #: wall seconds per canonical stage, in pipeline order; stages a
        #: run skips stay at 0.0 so every breakdown has the same keys
        self.wall = dict.fromkeys(CANONICAL_STAGES, 0.0)
        self._span = self.tracer.span(
            f"{sim.name}.run",
            simulator=sim.name,
            circuit=circuit.name,
            num_qubits=circuit.num_qubits,
            **span_attrs,
            num_batches=spec.num_batches,
            batch_size=spec.batch_size,
            execute=execute,
        )

    def __enter__(self) -> "RunObservation":
        self._span.__enter__()
        return self

    def __exit__(self, *exc) -> bool:
        return self._span.__exit__(*exc)

    @property
    def backend(self) -> str:
        """The run's active spMM backend (the default for a model-only run)."""
        return self.ladder.backend if self.ladder else default_backend()

    @contextmanager
    def stage(self, name: str, **attrs):
        """Charge the enclosed block's wall time to stage ``name``.

        Stages may be entered repeatedly; durations accumulate.  Each entry
        is also a ``category="stage"`` span (a no-op while tracing is
        disabled), handed to the block so it can attach attributes:
        ``with obs.stage("fusion") as span: span.set(fused_gates=8)``.
        """
        t0 = time.perf_counter()
        try:
            with self.tracer.span(name, category="stage", **attrs) as span:
                yield span
        finally:
            self.wall[name] = self.wall.get(name, 0.0) + time.perf_counter() - t0

    def result(
        self,
        modeled_time: float,
        stats: dict,
        *,
        breakdown: dict[str, float] | None = None,
        power: PowerReport | None = None,
        timeline: Timeline | None = None,
        outputs: list[np.ndarray] | None = None,
        resilience: dict | None = None,
    ) -> SimulationResult:
        """The run's :class:`SimulationResult`, every stats block attached.

        The simulator's own ``stats`` follow ``engine`` and precede
        ``wall_breakdown``, ``plan_cache``, ``trace`` (the run's spans),
        ``metrics`` (the run's delta) and ``resilience``: the run's events
        and counts, ``backend``, ``demoted``, ``task_retries``
        (``timeline``'s retries, else 0), then ``resilience``'s entries.
        """
        block = self._log.summary_since(self._log_mark)
        block.update(
            backend=self.backend,
            demoted=self.ladder.demoted if self.ladder else False,
            task_retries=timeline.total_retries() if timeline is not None else 0,
        )
        block.update(resilience or {})
        return SimulationResult(
            simulator=self._sim.name,
            circuit_name=self.circuit.name,
            num_qubits=self.circuit.num_qubits,
            spec=self.spec,
            modeled_time=modeled_time,
            breakdown=breakdown or {},
            power=power,
            timeline=timeline,
            outputs=outputs,
            wall_time=time.perf_counter() - self._wall_start,
            stats={
                "engine": self.engine.name,
                **stats,
                "wall_breakdown": dict(self.wall),
                "plan_cache": self._sim._plans.stats_dict(),
                "trace": [
                    span.to_dict()
                    for span in self.tracer.spans_since(self._span_mark)
                ],
                "metrics": self._metrics.delta(self._metric_mark),
                "resilience": block,
            },
        )
