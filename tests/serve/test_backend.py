"""Backend selection through the serving layer: warm-kernel
pre-compilation at start, propagation into execution sessions, and the
health surface."""

from __future__ import annotations

import pytest

from repro.engine.cache import ResultCache
from repro.errors import ConfigError, SolverError
from repro.obs import EventLog, Telemetry, read_events
from repro.pdn.kernels import KERNEL_TOLERANCE_V
from repro.serve import SimulationService

from ..engine.test_session_backend import break_kernel_compile
from .conftest import simulate_payload


def make_service(chip, cheap_options, telemetry, backend=None):
    return SimulationService(
        chip,
        cheap_options,
        cache=ResultCache(cache_dir=None, telemetry=telemetry),
        executor="serial",
        telemetry=telemetry,
        backend=backend,
    )


class TestWarmKernel:
    def test_start_precompiles_on_auto(self, chip, cheap_options):
        telemetry = Telemetry()
        svc = make_service(chip, cheap_options, telemetry).start()
        try:
            assert "engine.kernel.compile_seconds" in telemetry.timers
        finally:
            svc.stop()

    def test_reference_backend_skips_compile(self, chip, cheap_options):
        telemetry = Telemetry()
        svc = make_service(
            chip, cheap_options, telemetry, backend="reference"
        ).start()
        try:
            assert "engine.kernel.compile_seconds" not in telemetry.timers
        finally:
            svc.stop()

    def test_start_falls_back_like_a_session(
        self, chip, cheap_options, monkeypatch, tmp_path
    ):
        """A kernel that fails to compile degrades an ``auto`` service
        to the reference path — counted, with one ``kernel.fallback``
        event naming the chip as the sessions do — and keeps an
        explicit ``batched`` service from starting."""
        break_kernel_compile(monkeypatch, chip)
        telemetry = Telemetry()
        path = tmp_path / "events.jsonl"
        with EventLog(path) as events:
            telemetry.enable_tracing(events=events)
            make_service(chip, cheap_options, telemetry).start().stop()
        assert telemetry.counter("engine.kernel.fallbacks") == 1
        [fallback] = [
            e for e in read_events(path) if e["event"] == "kernel.fallback"
        ]
        assert fallback["chip"] == chip.chip_id
        with pytest.raises(SolverError, match="injected"):
            make_service(
                chip, cheap_options, Telemetry(), backend="batched"
            ).start()

    def test_invalid_backend_refused(self, chip, cheap_options):
        with pytest.raises(ConfigError):
            make_service(chip, cheap_options, Telemetry(), backend="hyper")


class TestPropagation:
    @pytest.mark.parametrize("backend", ["reference", "batched"])
    def test_health_reports_backend(self, chip, cheap_options, backend):
        svc = make_service(
            chip, cheap_options, Telemetry(), backend=backend
        ).start()
        try:
            assert svc.handle({"op": "health"})["backend"] == backend
        finally:
            svc.stop()

    def test_sessions_execute_on_service_backend(self, chip, cheap_options):
        """A simulate request on a batched service runs through the
        batched solve path (per-backend latency histogram)."""
        telemetry = Telemetry()
        svc = make_service(
            chip, cheap_options, telemetry, backend="batched"
        ).start()
        try:
            reply = svc.handle(simulate_payload())
            assert reply["ok"] is True
            assert telemetry.histogram("engine.run.batched.seconds") is not None
            assert telemetry.histogram("engine.run.reference.seconds") is None
        finally:
            svc.stop()

    def test_backends_agree_through_service(self, chip, cheap_options):
        results = {}
        for backend in ("reference", "batched"):
            svc = make_service(
                chip, cheap_options, Telemetry(), backend=backend
            ).start()
            try:
                results[backend] = svc.handle(simulate_payload())
            finally:
                svc.stop()
        assert results["reference"]["ok"] and results["batched"]["ok"]
        ref = results["reference"]["result"]
        fast = results["batched"]["result"]
        assert abs(fast["worst_vmin"] - ref["worst_vmin"]) < KERNEL_TOLERANCE_V
        for a, b in zip(fast["measurements"], ref["measurements"]):
            assert a["coherent_delta_i"] == b["coherent_delta_i"]
            assert abs(a["v_min"] - b["v_min"]) < KERNEL_TOLERANCE_V
            assert abs(a["v_max"] - b["v_max"]) < KERNEL_TOLERANCE_V
