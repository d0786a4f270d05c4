"""The repository benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``paper-cold``  — the whole paper campaign in a fresh process over an
  empty cache, followed by a checked replay over the cache it filled;
* ``serve-mixed`` — a ``serve`` process under a seeded closed-loop mix
  of simulate requests and control sessions.

Each run repeats its workload until ``--seconds`` have passed (at least
twice) and reports medians.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the workload once untraced and once with
every layer wrapped, and prints the per-layer metrics.  Every run checks
the program's outputs; the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from benchstats import OpTally, highest_supported_percentile, percentile
from harness import ROOT, provenance

WORK_ROOT = ROOT / ".bench_work"
MIN_REPEATS = 2


def _median(values) -> float:
    values = [v for v in values if v is not None]
    if not values:
        raise RuntimeError("no successful repetition to take a median of")
    return statistics.median(values)


def _repeat(seconds: float, trace: bool, once):
    """Call ``once(index, traced)`` until *seconds* have passed and at
    least ``MIN_REPEATS`` repetitions ran (traced: one untraced, then
    one traced repetition)."""
    results = []
    started = time.perf_counter()
    while True:
        index = len(results)
        results.append(once(index, trace and index == 1))
        if trace:
            if len(results) == 2:
                return results
        elif len(results) >= MIN_REPEATS and time.perf_counter() - started >= seconds:
            return results


# -- campaigns ---------------------------------------------------------------


def campaign_workload(work: Path, seed: int, seconds: float, trace: bool):
    """Each repetition runs the campaign cold; the first (and, traced,
    each) also replays it over the cache the cold run filled.  The
    end-to-end metrics are the cold runs'; the replay is checked (its
    exports must equal the cold run's byte for byte) and traced with
    the cold run, so the per-layer run covers cache reads too."""
    from campaigns import Iteration, dir_bytes
    from layers import SpanIndex, layer_metrics

    tally = OpTally()
    notes: list[str] = []
    reference = None

    def once(index: int, traced: bool):
        nonlocal reference
        label = f"cold{index}"
        cache = work / f"{label}-cache"
        cold = Iteration(work, label, cache, traced)
        problems = cold.check(tally, label, "cold", reference)
        if reference is None and not problems:
            reference = cold.exports
        runs = [cold]
        if index == 0 or trace:
            replay = Iteration(work, f"{label}-replay", cache, traced)
            problems += replay.check(tally, f"{label}-replay", "replay", cold.exports)
            runs.append(replay)
        notes.extend(f"{label}: {problem}" for problem in problems)
        return runs

    repetitions = _repeat(seconds, trace, once)
    colds = [runs[0] for runs in repetitions]
    backend = "batched"
    if any("engine.run.batched.seconds.count" in cold.count_drift("cold") for cold in colds):
        backend = "not batched"
    lines = [
        f"{it.out.name}: wall {it.finished.wall_s:.3f} s, setup {it.setup_s or float('nan'):.3f} s, "
        f"peak RSS {it.finished.peak_rss_mb:.1f} MB, exit {it.finished.returncode}"
        for runs in repetitions
        for it in runs
    ]
    if not trace:
        metrics = {
            "setup_s": _median(cold.setup_s for cold in colds),
            "wall_s": _median(cold.finished.wall_s for cold in colds),
            "peak_rss_mb": _median(cold.finished.peak_rss_mb for cold in colds),
        }
        return metrics, tally, notes + lines, backend
    plain, traced = repetitions
    index = SpanIndex(traced[0].spans + traced[1].spans)
    counters: dict[str, float] = {}
    for it in traced:
        for name, value in it.counters.items():
            counters[name] = counters.get(name, 0) + value
    wall = sum(it.finished.wall_s for it in traced)
    bookkeeping = sum(
        it.report.get("install_s", 0.0) + it.report.get("dump_s", 0.0) for it in traced
    )
    metrics = layer_metrics(
        index,
        counters,
        attributed_s=sum(index.self_s.values()),
        wall_s=wall - bookkeeping,
        overhead_frac=wall / sum(it.finished.wall_s for it in plain) - 1.0,
        cache_write_bytes=sum(it.cache_written for it in traced),
        export_bytes=sum(dir_bytes(it.out) for it in traced),
    )
    lines.append(
        f"untraced wall {sum(it.finished.wall_s for it in plain):.3f} s, traced wall "
        f"{wall:.3f} s (of which {bookkeeping:.3f} s installing wrappers and writing spans)"
    )
    return metrics, tally, notes + lines, backend


# -- serve -----------------------------------------------------------------


def serve_workload(work: Path, seed: int, seconds: float, trace: bool):
    sys.path.insert(0, str(ROOT / "src"))
    from layers import SpanIndex, layer_metrics
    from serveload import check_replies, make_stream, serve_once
    from spans import Tracer, install_client_wrappers

    from campaigns import dir_bytes

    tracer = Tracer() if trace else None

    def once(index: int, traced: bool):
        # Each repetition replays its own part of the seeded stream, so
        # a run's median spans several orders of first touches; the
        # traced comparison replays one part twice.
        stream = make_stream(seed, 0 if trace else index)
        if traced:
            install_client_wrappers(tracer)
        run = serve_once(work, f"serve{index}", stream, traced, tracer if traced else None)
        run["stream"] = stream
        return run

    runs = _repeat(seconds, trace, once)
    tally = OpTally()
    verified = check_replies(runs, tally, seed)
    notes = [
        f"verified: {verified}",
        f"operations: {json.dumps(tally.by_kind())}",
    ]
    backends = sorted(
        {
            record["reply"].get("backend")
            for run in runs
            for record in run["records"]
            if record["kind"] == "session.open"
        },
        key=str,
    )
    backend = ",".join(map(str, backends)) or "unknown"
    for run in runs:
        if not run["count_ok"]:
            notes.append(
                f"server exit {run['finished'].returncode}, "
                f"serve.executed={run['counters'].get('serve.executed', 0)} "
                f"(expected {run['distinct_mappings']}), "
                f"serve.busy={run['counters'].get('serve.busy', 0)}"
            )
    notes += [
        f"serve{i}: setup {run['setup_s']:.3f} s, wall {run['wall_s']:.3f} s, "
        f"peak RSS {run['finished'].peak_rss_mb:.1f} MB, exit {run['finished'].returncode}"
        for i, run in enumerate(runs)
    ]
    untraced = runs[:1] if trace else runs
    notes += _latency_lines(untraced)
    if not trace:
        metrics = {
            "setup_s": _median(run["setup_s"] for run in runs),
            "wall_s": _median(run["wall_s"] for run in runs),
            "peak_rss_mb": _median(run["finished"].peak_rss_mb for run in runs),
        }
        return metrics, tally, notes, backend
    plain, traced_run = runs
    index = SpanIndex(traced_run["spans"] + tracer.spans)
    lanes = index.members_under("serve.client")
    lane_wall = sum(traced_run["lane_walls"])
    metrics = layer_metrics(
        index,
        traced_run["counters"],
        # A request span's own self time is the transport around the
        # server's spans, not time any layer's code is known to run.
        attributed_s=sum(index.self_s[span_id] for span_id in lanes)
        - index.own("serve.client"),
        wall_s=lane_wall,
        overhead_frac=traced_run["wall_s"] / plain["wall_s"] - 1.0,
        cache_write_bytes=dir_bytes(traced_run["cache_dir"]),
        export_bytes=0,
    )
    return metrics, tally, notes, backend


def _latency_lines(runs: list[dict]) -> list[str]:
    """Client-side latency per operation kind, pooled over *runs*."""
    lines = []
    by_kind: dict[str, list[float]] = {}
    for run in runs:
        for record in run["records"]:
            by_kind.setdefault(record["kind"], []).append(record["ms"])
    total_ops = sum(len(v) for v in by_kind.values())
    total_wall = sum(run["wall_s"] for run in runs)
    for kind, values in sorted(by_kind.items()):
        tail = highest_supported_percentile(len(values))
        tail_text = (
            f", p{tail:g} {percentile(values, tail):.3f} ms" if tail and tail > 50 else ""
        )
        lines.append(
            f"latency {kind}: n={len(values)}, p50 {percentile(values, 50):.3f} ms{tail_text}"
        )
    lines.append(f"ops_per_s {total_ops / total_wall:.1f} over {len(runs)} server run(s)")
    return lines


WORKLOADS = {
    "paper-cold": campaign_workload,
    "serve-mixed": serve_workload,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    missing = [
        str(path.relative_to(ROOT))
        for path in (spec_path, ROOT / "src" / "repro", ROOT / "results")
        if not path.exists()
    ]
    if missing:
        print(f"error: not a repository checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        metrics, tally, notes, backend = WORKLOADS[args.workload](
            work, args.seed, args.seconds, bool(args.trace)
        )
    except Exception:  # noqa: BLE001 - no result line on a broken run
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in notes:
        print(line)
    print("provenance " + json.dumps(provenance(ROOT, backend), sort_keys=True))
    print(f"fail_frac {tally.fail_frac:.6f} ({tally.failed} of {tally.attempted})")
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
