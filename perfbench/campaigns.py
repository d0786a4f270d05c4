"""The paper-cold workload: the whole paper campaign (``repro-noise run
<every figure and table> --output DIR``) in a fresh process over an
empty cache, then once more over the cache that run filled (the
replay)."""

from __future__ import annotations

import json
from pathlib import Path

from benchstats import OpTally
from harness import ROOT, read_report, run_program

PAPER_IDS = (
    "fig7a", "fig7b", "fig8", "fig9", "fig10", "fig11a", "fig11b", "fig12",
    "fig13a", "fig13b", "fig14", "fig15", "table1",
)
RESULTS = ROOT / "results"
#: The exported files checked on every run: one per paper artifact
#: plus the index.
CHECKED_FILES = tuple(f"{eid}.json" for eid in PAPER_IDS) + ("index.json",)
#: The batched kernel's pinned agreement with the reference solver; the
#: committed fig8 waveform came from the reference backend.
KERNEL_TOLERANCE_V = 5e-6

#: Exact work of the campaign: drift means another program was measured.
EXPECTED = {
    "cold": {
        "engine.runs": 535,
        "engine.runs_executed": 248,
        "engine.cache.disk_hits": 0,
        "engine.kernel.fallbacks": 0,
    },
    "replay": {
        "engine.runs": 535,
        "engine.runs_executed": 0,
        "engine.cache.disk_hits": 248,
        "engine.kernel.fallbacks": 0,
    },
}


def campaign_args(cache: Path, out: Path) -> list[str]:
    return ["--cache-dir", str(cache), "run", *PAPER_IDS, "--output", str(out)]


def _within_tolerance(committed, produced, path: str = "") -> bool:
    """Structural equality, except voltages within the kernel tolerance."""
    if isinstance(committed, dict):
        return (
            isinstance(produced, dict)
            and committed.keys() == produced.keys()
            and all(
                _within_tolerance(committed[k], produced[k], f"{path}/{k}")
                for k in committed
            )
        )
    if isinstance(committed, list):
        return (
            isinstance(produced, list)
            and len(committed) == len(produced)
            and all(_within_tolerance(a, b, path) for a, b in zip(committed, produced))
        )
    if (
        isinstance(committed, float)
        and isinstance(produced, float)
        and "volts" in path.rsplit("/", 1)[-1]
    ):
        return abs(committed - produced) <= KERNEL_TOLERANCE_V
    return committed == produced


def matches_committed(name: str, produced: bytes) -> bool:
    committed = (RESULTS / name).read_bytes()
    if name != "fig8.json":
        return produced == committed
    try:
        return _within_tolerance(json.loads(committed), json.loads(produced))
    except ValueError:
        return False


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Iteration:
    """One campaign process and what it left behind."""

    def __init__(self, work: Path, label: str, cache: Path, trace: bool):
        self.out = work / f"{label}-out"
        report = work / f"{label}-report.json"
        before = dir_bytes(cache) if cache.exists() else 0
        self.finished = run_program(
            report, campaign_args(cache, self.out), work / f"{label}.log", trace
        )
        self.cache_written = dir_bytes(cache) - before
        self.report, self.spans = read_report(report, self.finished.spawned)
        telemetry_path = self.out / "telemetry.json"
        self.telemetry = (
            json.loads(telemetry_path.read_text()) if telemetry_path.exists() else {}
        )
        self.counters = self.telemetry.get("counters", {})
        self.exports = {
            name: (self.out / name).read_bytes()
            for name in CHECKED_FILES
            if (self.out / name).exists()
        }

    @property
    def setup_s(self) -> float | None:
        """Spawn until the first run is issued, plus the kernel compile
        the first executed run triggers."""
        first = self.report.get("first_issue")
        if first is None:
            return None
        compile_s = self.telemetry.get("timers", {}).get(
            "engine.kernel.compile_seconds", 0.0
        )
        return first - self.finished.spawned + compile_s

    def count_drift(self, mode: str) -> dict:
        drift = {
            name: (self.counters.get(name, 0), expected)
            for name, expected in EXPECTED[mode].items()
            if self.counters.get(name, 0) != expected
        }
        if mode == "cold":
            batched = (
                self.telemetry.get("histograms", {})
                .get("engine.run.batched.seconds", {})
                .get("count", 0)
            )
            if batched != EXPECTED["cold"]["engine.runs_executed"]:
                drift["engine.run.batched.seconds.count"] = (batched, 248)
        return drift

    def check(self, tally: OpTally, label: str, mode: str, reference: dict | None) -> list[str]:
        """Record this iteration's operations (one per checked export)
        in *tally*; returns the reasons of any failure."""
        problems = []
        if self.finished.returncode != 0:
            problems.append(f"exit code {self.finished.returncode}")
        drift = self.count_drift(mode)
        if drift:
            problems.append(f"work counts drifted: {drift}")
        for name in CHECKED_FILES:
            produced = self.exports.get(name)
            ok = not problems and produced is not None
            if ok and not matches_committed(name, produced):
                problems.append(f"{name} differs from results/{name}")
                ok = False
            if ok and reference is not None and produced != reference.get(name):
                problems.append(f"{name} differs from the earlier run's export")
                ok = False
            tally.attempt((label, name), "export", ok)
        return problems
