"""Process plumbing shared by the workloads: isolated environment,
spawning a measured program process, provenance."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = HERE / "launch.py"

#: Environment knobs that would change what the program does (cache
#: location, executor, backend, faults): never inherited.
_STRIPPED_PREFIX = "REPRO_"
#: A program process still running after this long is killed.
PROGRAM_TIMEOUT_S = 150.0


def program_env() -> dict[str, str]:
    """The caller's environment without any ``REPRO_*`` setting."""
    return {
        k: v for k, v in os.environ.items() if not k.startswith(_STRIPPED_PREFIX)
    }


def launch_command(report: Path, args: list[str], trace: bool) -> list[str]:
    command = [sys.executable, str(LAUNCH), str(report)]
    if trace:
        command.append("--trace")
    return command + ["--"] + list(args)


@dataclass
class Finished:
    """One program process after it exited."""

    returncode: int
    spawned: float
    exited: float
    peak_rss_mb: float

    @property
    def wall_s(self) -> float:
        return self.exited - self.spawned


def reap(proc: subprocess.Popen, spawned: float, timeout: float) -> Finished:
    """Wait for *proc* (killing it after *timeout* seconds) and collect
    its resource usage: the peak RSS of that process alone."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            exited = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
            return Finished(proc.returncode, spawned, exited, usage.ru_maxrss / 1024.0)
        if time.monotonic() > deadline:
            proc.kill()
            deadline = time.monotonic() + timeout
        time.sleep(0.002)


def run_program(report: Path, args: list[str], log: Path, trace: bool) -> Finished:
    """Run ``repro-noise <args>`` through the launcher to completion."""
    with open(log, "wb") as out:
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            launch_command(report, args, trace),
            cwd=ROOT,
            env=program_env(),
            stdout=out,
            stderr=subprocess.STDOUT,
        )
        return reap(proc, spawned, PROGRAM_TIMEOUT_S)


def read_report(path: Path, spawned: float) -> tuple[dict, list[dict]]:
    """The launcher's report and spans of one process.  The import span
    is extended back to the spawn: interpreter start is part of it."""
    report = json.loads(path.read_text()) if path.exists() else {}
    spans_path = Path(f"{path}.spans")
    spans = json.loads(spans_path.read_text()) if spans_path.exists() else []
    for span in spans:
        if span["name"] == "import":
            span["start"] = spawned
            break
    return report, spans


def source_digest(root: Path) -> str:
    """Content digest of the program's sources (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(root: Path, backend: str) -> dict:
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:  # noqa: BLE001 - provenance is best effort
        numpy_version = None
    blas = {
        name: os.environ[name]
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        if name in os.environ
    }
    return {
        "nproc": os.cpu_count(),
        "blas_threads": blas or "library default",
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "source_digest": source_digest(root),
        "backend": backend,
    }
