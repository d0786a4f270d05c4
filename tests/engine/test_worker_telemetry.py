"""Worker-side telemetry survives the process-pool boundary.

Before the multiprocess merge, metrics recorded inside pool workers
(solver invocations, solver wall clock, chip rebuilds) silently
vanished: a ``--jobs N`` campaign under-reported exactly the work it
parallelized.  These tests pin the fix: a process-pool batch reports
*identical* merged counters to the same batch run serially — including
under injected faults, whose deterministic per-run-key schedule makes
the comparison exact.
"""

from __future__ import annotations

import pytest

from repro.engine import ResultCache, SimulationSession
from repro.engine.executor import ProcessExecutor, SerialExecutor
from repro.engine.resilience import RetryPolicy
from repro.faults import FaultPlan
from repro.faults.harness import reset_fault_memo
from repro.machine.runner import RunOptions
from repro.obs import Telemetry

from .conftest import didt

FAST_RETRY = RetryPolicy(max_retries=2, backoff_base_s=0.0)

#: The counters/timers the merge must carry across the pool boundary
#: (worker-side) plus the parent-side ones that must stay consistent.
WORKER_COUNTERS = (
    "engine.runs",
    "engine.runs_executed",
    "engine.retries",
    "engine.failures",
    "engine.cache.hits",
    "engine.cache.misses",
    "engine.solver.invocations",
)


def run_sweep(chip, executor, faults=None, n=5):
    """One isolated batch of *n* distinct runs; returns its telemetry."""
    # Forked pool workers inherit the parent's transient-fault memo, so
    # clear it per batch: both backends must see the same fresh plan.
    reset_fault_memo()
    telemetry = Telemetry()
    session = SimulationSession(
        chip,
        RunOptions(segments=2, base_samples=1024),
        cache=ResultCache(telemetry=telemetry),
        executor=executor,
        retry=FAST_RETRY,
        on_failure="collect",
        faults=faults,
        telemetry=telemetry,
    )
    mappings = [[didt(i_high=24.0 + i)] * 6 for i in range(n)]
    session.run_many(mappings, [("wtel", i) for i in range(n)])
    return telemetry


class TestWorkerTelemetryMerge:
    def test_pool_counters_match_serial(self, chip):
        serial = run_sweep(chip, SerialExecutor())
        pooled = run_sweep(chip, ProcessExecutor(jobs=2))
        for name in WORKER_COUNTERS:
            assert pooled.counter(name) == serial.counter(name), name
        # The worker-side solver counter actually counted the runs.
        assert serial.counter("engine.solver.invocations") == 5

    def test_pool_counters_match_serial_under_faults(self, chip):
        # The fault schedule is a pure function of the run key, so the
        # same runs fail/retry under both backends and the merged
        # counters must agree exactly — the acceptance criterion.
        plan = FaultPlan(seed=3, exception_rate=0.5)
        serial = run_sweep(chip, SerialExecutor(), faults=plan)
        pooled = run_sweep(chip, ProcessExecutor(jobs=2), faults=plan)
        assert serial.counter("engine.retries") > 0  # faults actually fired
        for name in WORKER_COUNTERS:
            assert pooled.counter(name) == serial.counter(name), name

    def test_pool_histograms_and_timers_merge(self, chip):
        pooled = run_sweep(chip, ProcessExecutor(jobs=2))
        # Worker-side solver wall clock crossed the boundary...
        solver = pooled.histogram("engine.solver.seconds")
        assert solver is not None and solver.count == 5
        assert solver.total > 0.0
        # ...and the parent-side run-latency histogram saw every run.
        histogram = pooled.histogram("engine.run.seconds")
        assert histogram is not None and histogram.count == 5
        attempts = pooled.histogram("engine.run.attempts")
        assert attempts is not None and attempts.count == 5

    def test_serial_executor_still_records_in_caller_scope(self, chip):
        # The capture/merge dance in the serial path must be invisible:
        # metrics land in the session sink exactly as before.
        telemetry = run_sweep(chip, SerialExecutor(), n=2)
        assert telemetry.counter("engine.runs_executed") == 2
        assert telemetry.counter("engine.solver.invocations") == 2
        solver = telemetry.histogram("engine.solver.seconds")
        assert solver is not None and solver.count == 2


class TestExplicitSinkRouting:
    def test_map_guarded_merges_into_passed_sink(self):
        sink = Telemetry()

        def records_ambient(x):
            from repro.obs import get_telemetry

            get_telemetry().increment("inside")
            return x

        SerialExecutor().map_guarded(
            records_ambient,
            [1, 2, 3],
            RetryPolicy(max_retries=0, backoff_base_s=0.0),
            telemetry=sink,
        )
        assert sink.counter("inside") == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_process_map_guarded_merges_into_passed_sink(self, jobs):
        sink = Telemetry()
        ProcessExecutor(jobs=jobs).map_guarded(
            _count_ambient,
            [1, 2, 3, 4],
            RetryPolicy(max_retries=0, backoff_base_s=0.0),
            telemetry=sink,
        )
        assert sink.counter("inside") == 4


def _count_ambient(x):
    from repro.obs import get_telemetry

    get_telemetry().increment("inside")
    return x
