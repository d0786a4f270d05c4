"""The shared run-session layer: one instrumented hot path for every
simulation sweep.

A :class:`SimulationSession` binds a chip and one set of
:class:`RunOptions` and exposes :meth:`run` / :meth:`run_many`.  Every
consumer layer — the experiment drivers, the §V sensitivity sweeps, the
exhaustive mapping enumeration, the Vmin protocol, the mitigation
mechanisms — executes runs through a session instead of constructing
:class:`ChipRunner`s directly.  The session adds, around the raw
runner:

* **content-addressed caching** — each run's fingerprint (chip netlist
  + variation seed, per-core program signatures, run options, phase
  seed where applicable) addresses a shared two-tier
  :class:`ResultCache`, so identical configurations are solved once per
  campaign (and once per machine, with the disk tier);
* **parallel fan-out** — :meth:`run_many` dispatches cache misses in
  contiguous chunks over a process pool when a parallel backend is
  selected (``--jobs``/``$REPRO_JOBS``), rebuilding the chip once per
  worker;
* **fault isolation** — every run executes under a
  :class:`~repro.engine.resilience.RetryPolicy` (bounded retry with
  backoff, optional per-run timeout); a run that still fails surfaces
  as a structured :class:`~repro.engine.resilience.RunFailure` and, by
  default, one consolidated :class:`~repro.errors.ExecutionError` — a
  crashing worker never takes the rest of the batch down with it, and
  a broken process pool degrades to serial execution;
* **checkpointing** — finished runs are flushed to the (atomic-write)
  disk cache *as they complete*, not at batch end, so a campaign
  killed midway resumes by replaying the finished points and
  recomputing only the rest;
* **telemetry** — run counts, cache hits/misses, retry/failure/
  degradation counters, solver-call counts and solver wall-clock,
  surfaced by ``repro-noise run --profile`` and the experiment
  exporter.

Fault injection (``$REPRO_FAULTS`` or an explicit ``faults=`` plan)
wraps the session executor in a
:class:`~repro.faults.FaultyExecutor`, which is how the engine's test
suite and the CI fault-injection job prove all of the above.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from typing import Sequence

from ..errors import ConfigError, ExecutionError, SolverError
from ..machine.chip import Chip, ChipConfig
from ..machine.runner import ChipRunner, RunOptions, RunResult
from ..machine.workload import CurrentProgram
from ..obs import Telemetry, get_telemetry
from ..pdn.kernels import CompiledChipKernel
from .cache import ResultCache, global_cache
from .executor import Executor, make_executor
from .fingerprint import canonical, chip_fingerprint, run_fingerprint
from .resilience import RetryPolicy, RunFailure

__all__ = [
    "SimulationSession",
    "BACKENDS",
    "resolve_backend_name",
    "resolve_kernel",
]

Mapping = Sequence[CurrentProgram | None]

#: ``on_failure`` modes: raise one consolidated ExecutionError, or
#: return RunFailure records in the results.
FAILURE_MODES = ("raise", "collect")

#: Solve-path choices: ``auto`` compiles the chip's batched kernel and
#: falls back to the reference superposition solver when compilation
#: fails; the explicit names force one path.  The choice never enters
#: run fingerprints — backend must not change the cache key.
BACKENDS = ("auto", "reference", "batched")

_UNSET = object()


def resolve_backend_name(backend: str | None) -> str:
    """Normalize and validate a backend choice: explicit argument,
    else ``$REPRO_BACKEND`` (the global ``--backend`` CLI flag exports
    it), else ``auto``."""
    if backend is None:
        backend = os.environ.get("REPRO_BACKEND", "").strip().lower() or "auto"
    if backend not in BACKENDS:
        raise ConfigError(
            f"backend must be one of {BACKENDS} (got {backend!r})"
        )
    return backend


def resolve_kernel(
    chip: Chip, backend: str, telemetry: Telemetry
) -> CompiledChipKernel | None:
    """The compiled kernel a resolved *backend* name solves *chip*
    with, or ``None`` for the reference solver.

    ``"reference"`` never compiles.  Otherwise the kernel is compiled
    (memoized per chip fingerprint, so a warm process pays nothing),
    timed into the ``engine.kernel.compile_seconds`` timer.  When
    compilation fails its self-check, ``"auto"`` falls back to the
    reference solver (counted in ``engine.kernel.fallbacks``, one
    ``kernel.fallback`` event) and an explicit ``"batched"`` propagates
    the :class:`~repro.errors.SolverError`.
    """
    if backend == "reference":
        return None
    try:
        with telemetry.time("engine.kernel.compile_seconds"):
            return chip.compiled_kernel
    except SolverError as error:
        if backend == "batched":
            raise
        telemetry.increment("engine.kernel.fallbacks")
        telemetry.emit(
            "kernel.fallback",
            chip=chip.chip_id,
            error=f"{type(error).__name__}: {error}",
        )
        return None


class SimulationSession:
    """Cached, instrumented, fault-tolerant, parallelizable execution
    of mapping runs on one chip.

    Parameters
    ----------
    chip:
        The chip instance runs execute on.
    options:
        Run options shared by every run of this session (fresh defaults
        when omitted).
    cache:
        Result cache; the process-wide shared cache when omitted, so
        independent sessions over the same chip reuse each other's
        runs.  Pass ``cache=None`` explicitly via a private
        :class:`ResultCache` to isolate a session (tests).
    executor:
        Fan-out backend for :meth:`run_many` (``"serial"``/
        ``"process"`` or a prebuilt executor); environment default when
        omitted.
    retry:
        Fault-isolation policy (max retries, backoff, per-run
        timeout); ``$REPRO_MAX_RETRIES``/``$REPRO_RUN_TIMEOUT`` (the
        ``--max-retries``/``--run-timeout`` CLI flags) when omitted.
    on_failure:
        ``"raise"`` (default): a run that exhausts its retries raises
        one :class:`~repro.errors.ExecutionError` carrying every
        :class:`~repro.engine.resilience.RunFailure` of the batch.
        ``"collect"``: failures are returned in-place in the result
        list instead, so a sweep can keep the points that worked.
    faults:
        Optional :class:`~repro.faults.FaultPlan` injected around the
        executor; ``$REPRO_FAULTS`` when omitted (the CI
        fault-injection job sets it).
    telemetry:
        Telemetry sink (process default when omitted).
    backend:
        Solve path: ``"auto"`` (default; ``$REPRO_BACKEND`` when set)
        compiles the chip's batched kernel and falls back to the
        reference solver if compilation fails, ``"reference"`` and
        ``"batched"`` force one path (an explicit ``"batched"``
        propagates the compile error).  The backend never enters run
        fingerprints, so either path reads and writes the same cache
        entries.
    """

    def __init__(
        self,
        chip: Chip,
        options: RunOptions | None = None,
        *,
        cache: ResultCache | None = None,
        executor: Executor | str | None = None,
        jobs: int | None = None,
        retry: RetryPolicy | None = None,
        on_failure: str = "raise",
        faults: object = _UNSET,
        telemetry: Telemetry | None = None,
        backend: str | None = None,
    ):
        self.chip = chip
        self.options = options or RunOptions()
        self.backend = resolve_backend_name(backend)
        self._resolved_backend: str | None = None
        self.cache = cache if cache is not None else global_cache()
        if isinstance(executor, (str, type(None))):
            executor = make_executor(executor, jobs)
        if on_failure not in FAILURE_MODES:
            raise ConfigError(
                f"on_failure must be one of {FAILURE_MODES} "
                f"(got {on_failure!r})"
            )
        self.retry = retry or RetryPolicy.from_env()
        self.on_failure = on_failure
        self.executor = self._wire_faults(executor, faults)
        self.telemetry = telemetry or get_telemetry()
        self._chip_fp = chip_fingerprint(chip)

    @staticmethod
    def _wire_faults(executor, faults):
        """Wrap *executor* in a FaultyExecutor when a plan is supplied
        (explicitly or via ``$REPRO_FAULTS``)."""
        from ..faults import FaultPlan, FaultyExecutor

        if isinstance(executor, FaultyExecutor):
            return executor
        plan = FaultPlan.from_env() if faults is _UNSET else faults
        if plan is not None and plan.active:
            return FaultyExecutor(executor, plan)
        return executor

    def derive(self, **option_overrides) -> "SimulationSession":
        """A sibling session over the same chip, cache, executor and
        telemetry, with *option_overrides* applied to a copy of the run
        options (the caller's options are never mutated)."""
        return SimulationSession(
            self.chip,
            replace(self.options, **option_overrides),
            cache=self.cache,
            executor=self.executor,
            retry=self.retry,
            on_failure=self.on_failure,
            faults=None,
            telemetry=self.telemetry,
            backend=self.backend,
        )

    # -- backend resolution ---------------------------------------------
    def _resolve_backend(self) -> str:
        """The concrete solve path (``"reference"`` or ``"batched"``)
        this session executes with.

        Lazy and resolved at most once, by :func:`resolve_kernel`.
        """
        if self._resolved_backend is None:
            kernel = resolve_kernel(self.chip, self.backend, self.telemetry)
            self._resolved_backend = (
                "reference" if kernel is None else "batched"
            )
        return self._resolved_backend

    # -- single runs ----------------------------------------------------
    def fingerprint(self, mapping: Mapping, run_tag: object = "run") -> str:
        """Content address of one run under this session."""
        return run_fingerprint(self._chip_fp, mapping, self.options, run_tag)

    def run(self, mapping: Mapping, run_tag: object = "run") -> RunResult:
        """Execute *mapping* (or replay it from the cache).

        Under ``on_failure="collect"`` a run that exhausted its retry
        budget returns its :class:`RunFailure` record instead of a
        result.
        """
        self.telemetry.increment("engine.runs")
        key = self.fingerprint(mapping, run_tag)
        cached = self.cache.get(key)
        if cached is not None:
            self.telemetry.emit("run.cached", run=run_tag, fingerprint=key)
            return cached
        self.telemetry.emit("run.scheduled", run=run_tag, fingerprint=key)
        return self._execute_and_cache([(key, list(mapping), run_tag)])[0]

    # -- batched runs ---------------------------------------------------
    def run_many(
        self,
        mappings: Sequence[Mapping],
        tags: Sequence[object] | None = None,
    ) -> list[RunResult]:
        """Execute a batch of independent runs, in input order.

        Cache hits are replayed; distinct misses are deduplicated and
        each executes once through the session executor's guarded path
        (retry policy, per-run latency, structured failures) — in
        process on the serial executor, chunked over worker processes
        on a pool (each worker rebuilds the chip once).  Finished runs
        are checkpointed to the cache as they complete, so an
        interrupted batch resumes from where it died.
        """
        mappings = [list(m) for m in mappings]
        if tags is None:
            tags = list(range(len(mappings)))
        if len(tags) != len(mappings):
            raise ValueError("tags and mappings must have equal length")
        self.telemetry.increment("engine.runs", len(mappings))

        results: list[RunResult | RunFailure | None] = [None] * len(mappings)
        pending: dict[str, list[int]] = {}
        with self.telemetry.span("session.lookup", runs=len(mappings)):
            for i, (mapping, tag) in enumerate(zip(mappings, tags)):
                key = self.fingerprint(mapping, tag)
                cached = self.cache.get(key)
                if cached is not None:
                    results[i] = cached
                    self.telemetry.emit(
                        "run.cached", run=tag, fingerprint=key
                    )
                else:
                    if key not in pending:
                        self.telemetry.emit(
                            "run.scheduled", run=tag, fingerprint=key
                        )
                    pending.setdefault(key, []).append(i)

        if pending:
            order = list(pending)
            work = [
                (key, mappings[pending[key][0]], tags[pending[key][0]])
                for key in order
            ]
            executed = self._execute_and_cache(work)
            for key, result in zip(order, executed):
                for i in pending[key]:
                    results[i] = result
        return results  # type: ignore[return-value]

    # -- internals ------------------------------------------------------
    def _account_executed(self, n_runs: int) -> None:
        self.telemetry.increment("engine.runs_executed", n_runs)
        # One LTI superposition solve per (segment, observed core).
        self.telemetry.increment(
            "engine.solver_calls",
            n_runs * self.options.segments * self.chip.n_cores,
        )

    def _execute_and_cache(
        self, work: list[tuple[str, Mapping, object]]
    ) -> list[RunResult | RunFailure]:
        """Run the deduplicated misses under the retry policy; returns
        results (or failure records) in *work* order.

        Every finished run is flushed to the cache the moment its
        chunk completes — the incremental checkpoint that makes a
        killed campaign resumable — and failed runs are *not* cached,
        so a later invocation recomputes exactly the unfinished points.
        """
        keys = [key for key, _, _ in work]
        labels = [tag for _, _, tag in work]
        backend = self._resolve_backend()
        run_fn = _RunItem(
            self.chip.config, self.chip.chip_id, self.options, backend
        )
        # Pre-seed the worker-chip memo so in-process execution (the
        # serial backend, or a degraded pool) reuses this session's
        # already-built chip instead of re-deriving the modal model.
        _WORKER_CHIPS.setdefault(run_fn.chip_key, self.chip)
        telemetry = self.telemetry

        def flush(index: int, outcome) -> None:
            # Fires per run as its chunk completes, so the disk-cache
            # checkpoint, the latency histograms and the event log all
            # advance incrementally — a killed campaign leaves both a
            # resumable cache and a readable trace.
            if outcome.ok:
                self.cache.put(keys[index], outcome.value)
            telemetry.observe("engine.run.seconds", outcome.duration_s)
            telemetry.observe(
                f"engine.run.{backend}.seconds", outcome.duration_s
            )
            telemetry.observe("engine.run.attempts", outcome.attempts)
            if outcome.attempts > 1:
                telemetry.emit(
                    "run.retried",
                    run=labels[index],
                    fingerprint=keys[index],
                    retries=outcome.attempts - 1,
                )
            if outcome.ok:
                telemetry.emit(
                    "run.completed",
                    run=labels[index],
                    fingerprint=keys[index],
                    dur_s=round(outcome.duration_s, 6),
                    attempts=outcome.attempts,
                    worker=outcome.worker,
                )
            else:
                telemetry.emit(
                    "run.failed",
                    run=labels[index],
                    fingerprint=keys[index],
                    dur_s=round(outcome.duration_s, 6),
                    attempts=outcome.attempts,
                    worker=outcome.worker,
                    error=f"{outcome.failure.error_type}: "
                    f"{outcome.failure.message}",
                )

        for key, _, tag in work:
            telemetry.emit("run.started", run=tag, fingerprint=key)
        with telemetry.span("session.execute", runs=len(work)):
            with telemetry.time("engine.run_seconds"):
                outcomes = self.executor.map_guarded(
                    run_fn,
                    [(key, list(mapping), tag) for key, mapping, tag in work],
                    self.retry,
                    labels=labels,
                    fingerprints=keys,
                    on_result=flush,
                    telemetry=telemetry,
                )

        retries = sum(outcome.attempts - 1 for outcome in outcomes)
        if retries:
            self.telemetry.increment("engine.retries", retries)
        timeouts = sum(outcome.timeouts for outcome in outcomes)
        if timeouts:
            self.telemetry.increment("engine.timeouts", timeouts)
        failures = [o.failure for o in outcomes if not o.ok]
        self._account_executed(len(work) - len(failures))
        if failures:
            self.telemetry.increment("engine.failures", len(failures))
            if self.on_failure == "raise":
                first = failures[0]
                error = ExecutionError(
                    f"{len(failures)} of {len(work)} run(s) failed "
                    f"permanently; first: {first.describe()}",
                    failures,
                )
                raise error from first.exception
        return [o.value if o.ok else o.failure for o in outcomes]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SimulationSession(chip={self.chip!r}, "
            f"executor={self.executor!r})"
        )


# -- worker side ---------------------------------------------------------

#: Per-worker-process chip memo: rebuilding the modal decomposition is
#: the expensive part of worker startup, so keep chips across batches.
_WORKER_CHIPS: dict[str, Chip] = {}


class _RunItem:
    """Picklable per-run callable: ``(fingerprint, mapping, tag)`` →
    :class:`RunResult`, rebuilding the chip at most once per worker
    process (memoized by chip identity, computed without constructing
    a probe chip)."""

    def __init__(
        self,
        config: ChipConfig,
        chip_id: int,
        options: RunOptions,
        backend: str = "reference",
    ):
        self.config = config
        self.chip_id = chip_id
        self.options = options
        self.backend = backend
        self.chip_key = canonical((Chip.__name__, config, chip_id))

    def __call__(self, item: tuple[str, list, object]) -> RunResult:
        _, mapping, tag = item
        chip = _WORKER_CHIPS.get(self.chip_key)
        # Recorded into the *ambient* telemetry: inside a pool worker
        # that is the chunk's capture sink, whose snapshot merges back
        # into the session telemetry — the worker-side metrics that
        # used to vanish at the ProcessPoolExecutor boundary.
        telemetry = get_telemetry()
        if chip is None:
            with telemetry.time("engine.worker.chip_build_seconds"):
                chip = Chip(self.config, self.chip_id)
            _WORKER_CHIPS[self.chip_key] = chip
        # The compiled kernel is memoized per chip fingerprint, so a
        # pool worker compiles once per chip and reuses it across every
        # run and batch it executes.
        kernel = chip.compiled_kernel if self.backend == "batched" else None
        telemetry.increment("engine.solver.invocations")
        start = time.perf_counter()
        result = ChipRunner(chip).run(mapping, self.options, tag, kernel=kernel)
        telemetry.observe(
            "engine.solver.seconds", time.perf_counter() - start
        )
        return result
