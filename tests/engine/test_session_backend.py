"""The session backend layer: selection, the compile-or-fallback
policy, the one guarded dispatch path every backend runs through (true
per-run latency, a schema-valid event log), and — above all — cache-key
neutrality (the backend must never change a run's fingerprint, so
either path reads and writes the same entries).
"""

from __future__ import annotations

import time

import pytest

from repro.engine import (
    BACKENDS,
    ResultCache,
    SimulationSession,
    resolve_backend_name,
)
from repro.engine.stepping import SteppingSession
from repro.errors import ConfigError, SolverError
from repro.machine.chip import Chip
from repro.machine.runner import ChipRunner, RunOptions
from repro.obs import EventLog, validate_event_log
from repro.pdn.kernels import KERNEL_TOLERANCE_V

from .conftest import didt


OPTIONS = RunOptions(segments=2, base_samples=1024)

#: Injected latency of the one slow run in the per-run latency test.
SLOW_RUN_S = 0.2


def make_session(chip, telemetry, cache=None, **kwargs):
    return SimulationSession(
        chip,
        OPTIONS,
        cache=cache if cache is not None else ResultCache(telemetry=telemetry),
        executor="serial",
        telemetry=telemetry,
        **kwargs,
    )


def break_kernel_compile(monkeypatch, chip):
    """Force ``chip.compiled_kernel`` to raise SolverError for the
    duration of one test (clearing the memoized instance value and
    shadowing the class descriptor)."""

    def boom(self):
        raise SolverError("injected kernel compile failure")

    monkeypatch.delitem(chip.__dict__, "compiled_kernel", raising=False)
    monkeypatch.setattr(Chip, "compiled_kernel", property(boom))


class TestSelection:
    def test_invalid_name_rejected(self, chip, telemetry):
        with pytest.raises(ConfigError, match="backend"):
            resolve_backend_name("vectorized")
        with pytest.raises(ConfigError, match="backend"):
            make_session(chip, telemetry, backend="turbo")

    @pytest.mark.parametrize("name", BACKENDS)
    def test_explicit_names_accepted(self, chip, telemetry, name):
        assert make_session(chip, telemetry, backend=name).backend == name

    def test_env_default(self, chip, telemetry, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "batched")
        assert resolve_backend_name(None) == "batched"
        assert make_session(chip, telemetry).backend == "batched"
        # An explicit argument wins over the environment.
        assert resolve_backend_name("reference") == "reference"
        monkeypatch.delenv("REPRO_BACKEND")
        assert resolve_backend_name(None) == "auto"

    def test_derive_carries_backend(self, chip, telemetry):
        session = make_session(chip, telemetry, backend="batched")
        sibling = session.derive(segments=4)
        assert sibling.backend == "batched"
        assert sibling.options.segments == 4
        assert session.options.segments == 2


class TestCacheNeutrality:
    def test_fingerprint_ignores_backend(self, chip, telemetry):
        mapping = [didt()] * 6
        fingerprints = {
            make_session(chip, telemetry, backend=name).fingerprint(mapping)
            for name in BACKENDS
        }
        assert len(fingerprints) == 1

    def test_backends_share_cache_entries(self, chip, telemetry):
        """A run executed under one backend replays from the cache
        under the other — in both directions."""
        cache = ResultCache(telemetry=telemetry)
        batched = make_session(chip, telemetry, cache=cache, backend="batched")
        reference = make_session(
            chip, telemetry, cache=cache, backend="reference"
        )
        warm = [didt()] * 6
        batched.run(warm, "shared")
        executed = telemetry.counter("engine.runs_executed")
        replay = reference.run(warm, "shared")
        assert telemetry.counter("engine.runs_executed") == executed
        assert replay.p2p_by_core == batched.run(warm, "shared").p2p_by_core

        cold = [didt(i_high=30.0)] * 6
        reference.run(cold, "shared2")
        executed = telemetry.counter("engine.runs_executed")
        batched.run(cold, "shared2")
        assert telemetry.counter("engine.runs_executed") == executed


class TestFallback:
    """The compile-or-fallback policy through :class:`SimulationSession`;
    :class:`TestSteppingFallback` reruns every case through
    :class:`SteppingSession` by overriding :meth:`solve`."""

    @staticmethod
    def solve(chip, telemetry, backend):
        """Solve one mapping; returns ``(result, resolved backend)``."""
        session = make_session(chip, telemetry, backend=backend)
        result = session.run([didt()] * 6)
        return result, session._resolve_backend()

    def test_auto_falls_back_to_reference(self, chip, telemetry, monkeypatch):
        break_kernel_compile(monkeypatch, chip)
        result, resolved = self.solve(chip, telemetry, "auto")
        assert result.max_p2p > 0
        assert resolved == "reference"
        assert telemetry.counter("engine.kernel.fallbacks") == 1

    def test_explicit_batched_propagates_error(
        self, chip, telemetry, monkeypatch
    ):
        break_kernel_compile(monkeypatch, chip)
        with pytest.raises(SolverError, match="injected"):
            self.solve(chip, telemetry, "batched")
        assert telemetry.counter("engine.kernel.fallbacks") == 0


class TestSteppingFallback(TestFallback):
    @staticmethod
    def solve(chip, telemetry, backend):
        stepping = SteppingSession(
            chip, [didt()] * 6, OPTIONS, backend=backend, telemetry=telemetry
        )
        return stepping.result(), stepping.resolved_backend


class TestBatchedDispatch:
    MAPPINGS = [
        [didt()] * 6,
        [didt(i_high=28.0)] * 6,
        [didt(sync=False)] * 6,
    ]

    def test_run_many_matches_reference(self, chip, telemetry):
        fast = make_session(chip, telemetry, backend="batched").run_many(
            self.MAPPINGS
        )
        slow = make_session(chip, telemetry, backend="reference").run_many(
            self.MAPPINGS
        )
        assert telemetry.histogram("engine.run.batched.seconds") is not None
        assert telemetry.histogram("engine.run.reference.seconds") is not None
        for quick, ref in zip(fast, slow):
            for a, b in zip(quick.measurements, ref.measurements):
                assert a.coherent_delta_i == b.coherent_delta_i
                assert abs(a.v_min - b.v_min) < KERNEL_TOLERANCE_V
                assert abs(a.v_max - b.v_max) < KERNEL_TOLERANCE_V

    def test_solver_accounting_parity(self, chip, telemetry):
        """Batched dispatch reports the same per-run solver counters as
        the guarded path."""
        session = make_session(chip, telemetry, backend="batched")
        session.run_many(self.MAPPINGS)
        assert telemetry.counter("engine.solver.invocations") == len(
            self.MAPPINGS
        )
        assert telemetry.counter("engine.runs_executed") == len(self.MAPPINGS)

    def test_per_run_latency_is_not_averaged(
        self, chip, telemetry, monkeypatch
    ):
        """Each run's own duration reaches the latency histograms: one
        slow run stands out instead of being spread over its batch."""
        run = ChipRunner.run

        def slow_first(self, mapping, options=None, run_tag="run", **kw):
            if run_tag == 0:
                time.sleep(SLOW_RUN_S)
            return run(self, mapping, options, run_tag, **kw)

        monkeypatch.setattr(ChipRunner, "run", slow_first)
        make_session(chip, telemetry, backend="batched").run_many(
            self.MAPPINGS
        )
        for name in ("engine.run.seconds", "engine.solver.seconds"):
            histogram = telemetry.histogram(name)
            assert histogram.count == len(self.MAPPINGS)
            assert histogram.max >= SLOW_RUN_S
            assert histogram.min < SLOW_RUN_S

    def test_event_log_is_schema_valid(self, chip, telemetry, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as events:
            telemetry.enable_tracing(events=events)
            make_session(chip, telemetry, backend="batched").run_many(
                self.MAPPINGS
            )
        n_valid, errors = validate_event_log(path)
        assert errors == []
        assert n_valid > len(self.MAPPINGS)
