"""The serve-mixed workload: one ``repro-noise serve`` process and this
process as a closed-loop load generator.

Two persistent connections take operations in turn from one seeded
stream (a client sends its next request only after the previous reply):

* about 98 % are ``simulate`` requests over 64 distinct mappings
  (1-6 active cores x 5 stimulus frequencies from 1 to 90 MHz x ΔI
  levels), drawn with Pareto (Zipf-like) popularity, so about 2 % are
  first touches that execute and the rest replay from the hot tier;
* about 2 % open an integral-controller session on a six-core 2.6 MHz
  mapping, step it one window at a time through all 32 windows and
  close it: stateful control writes beside stateless reads.

The whole stream is generated from the seed before the clock starts;
the server receives only the generated requests.
"""

from __future__ import annotations

import json
import os
import queue
import random
import re
import subprocess
import threading
import time
from pathlib import Path

from benchstats import OpTally
from harness import ROOT, Finished, launch_command, program_env, read_report, reap

FREQS_HZ = (1e6, 2.6e6, 9e6, 30e6, 90e6)
N_MAPPINGS = 64
N_SIMULATE = 2900
N_SESSIONS = 50
SESSION_GAINS = tuple(round(0.1 * k, 1) for k in range(1, 11))
WINDOWS_PER_SEGMENT = 4
LANES = 2
POPULARITY_EXPONENT = 1.0
SERVER_START_TIMEOUT_S = 120.0
SERVER_EXIT_TIMEOUT_S = 60.0


def mapping_universe() -> list[list[dict]]:
    """The 64 distinct simulate mappings (fixed; the seed only decides
    their popularity and the order of the stream)."""
    universe = []
    for i in range(N_MAPPINGS):
        cores = 1 + i % 6
        freq = FREQS_HZ[(i // 6) % len(FREQS_HZ)]
        delta_i = (10.0, 20.0, 15.0)[i // 30]
        program = {
            "name": "bench",
            "i_low": 5.0,
            "i_high": 5.0 + delta_i,
            "freq_hz": freq,
        }
        universe.append([program] * cores)
    return universe


SESSION_MAPPING = [{"name": "bench-ctrl", "i_low": 14.0, "i_high": 20.0, "freq_hz": 2.6e6}] * 6


def make_stream(seed: int, part: int = 0) -> list[dict]:
    """Seeded operation stream *part* of a run: ``{"kind": "simulate",
    "mapping"}`` or ``{"kind": "session", "gain"}`` entries."""
    rng = random.Random(f"{seed}:{part}")
    universe = mapping_universe()
    rng.shuffle(universe)
    weights = [1.0 / (rank + 1) ** POPULARITY_EXPONENT for rank in range(len(universe))]
    ops = [
        {"kind": "simulate", "mapping": mapping}
        for mapping in rng.choices(universe, weights=weights, k=N_SIMULATE)
    ]
    ops += [
        {"kind": "session", "gain": rng.choice(SESSION_GAINS)}
        for _ in range(N_SESSIONS)
    ]
    rng.shuffle(ops)
    return ops


def mapping_key(mapping: list[dict]) -> str:
    return json.dumps(mapping, sort_keys=True)


# -- one server lifetime ----------------------------------------------------


class Lane(threading.Thread):
    """One persistent connection replaying its share of the stream."""

    def __init__(self, client, next_op, records: list, tracer=None):
        super().__init__(daemon=True)
        self.client = client
        self.next_op = next_op
        self.records = records
        self.tracer = tracer
        self.port = client._sock.getsockname()[1]
        self.seq = 0
        self.error: BaseException | None = None
        self.first_sent: float | None = None
        self.last_received: float | None = None

    def _call(self, kind: str, op_index: int, payload: dict) -> dict:
        self.seq += 1
        if self.tracer is not None:
            self.tracer.set_rid(f"{self.port}:{self.seq}")
        start = time.perf_counter()
        if self.first_sent is None:
            self.first_sent = start
        reply = self.client.request(payload)
        end = time.perf_counter()
        self.last_received = end
        self.records.append(
            {"kind": kind, "op": op_index, "ms": (end - start) * 1e3, "reply": reply}
        )
        return reply

    def run(self) -> None:
        try:
            while True:
                item = self.next_op()
                if item is None:
                    return
                index, op = item
                if op["kind"] == "simulate":
                    self._call(
                        "simulate", index, {"op": "simulate", "mapping": op["mapping"]}
                    )
                    continue
                opened = self._call(
                    "session.open",
                    index,
                    {
                        "op": "session.open",
                        "mapping": SESSION_MAPPING,
                        "controller": {"kind": "integral", "gain": op["gain"]},
                        "windows_per_segment": WINDOWS_PER_SEGMENT,
                    },
                )
                if not opened.get("ok"):
                    continue
                session = opened["session"]
                for _ in range(opened["windows"]):
                    stepped = self._call(
                        "session.step",
                        index,
                        {"op": "session.step", "session": session, "steps": 1},
                    )
                    if not stepped.get("ok") or stepped.get("done"):
                        break
                self._call(
                    "session.close", index, {"op": "session.close", "session": session}
                )
        except BaseException as error:  # noqa: BLE001 - reported by the caller
            self.error = error


class Server:
    """A ``repro-noise serve`` process on a fresh cache directory."""

    def __init__(self, work: Path, label: str, trace: bool):
        self.report = work / f"{label}-server.json"
        self.cache = work / f"{label}-cache"
        self.log = open(work / f"{label}-server.log", "wb")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            launch_command(
                self.report,
                ["--cache-dir", str(self.cache), "serve", "--port", "0"],
                trace,
            ),
            cwd=ROOT,
            env=program_env(),
            stdout=subprocess.PIPE,
            stderr=self.log,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
            self.log.write(line)
        self._lines.put(None)

    def port(self) -> int:
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("server did not start in time") from None
            if line is None:
                raise RuntimeError("server exited before serving")
            match = re.search(rb"serving on [^:\s]+:(\d+)", line)
            if match:
                return int(match.group(1))

    def stop(self, client) -> Finished:
        try:
            client.shutdown()
        finally:
            finished = reap(self.proc, self.spawned, SERVER_EXIT_TIMEOUT_S)
            self._reader.join(timeout=10)
            self.log.close()
        return finished

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            reap(self.proc, self.spawned, SERVER_EXIT_TIMEOUT_S)
        self.log.close()


def serve_once(work: Path, label: str, stream: list[dict], trace: bool, tracer=None) -> dict:
    """Start a server, replay *stream* over ``LANES`` connections, read
    the server's counters, shut it down."""
    from repro.serve import ServeClient

    server = Server(work, label, trace)
    try:
        port = server.port()
        control = ServeClient(port=port)
        health = control.health()
        ready = time.perf_counter()
        if not health.get("ok"):
            raise RuntimeError(f"server unhealthy: {health}")
        lock = threading.Lock()
        cursor = iter(enumerate(stream))

        def next_op():
            with lock:
                return next(cursor, None)

        records: list = []
        clients = [ServeClient(port=port, timeout=60.0) for _ in range(LANES)]
        lanes = [Lane(client, next_op, records, tracer) for client in clients]
        for lane in lanes:
            lane.start()
        for lane in lanes:
            lane.join()
        for client in clients:
            client.close()
        errors = [lane.error for lane in lanes if lane.error is not None]
        if errors:
            raise RuntimeError(f"load lane failed: {errors[0]!r}")
        counters = control.metrics().get("metrics", {}).get("counters", {})
        finished = server.stop(control)
        control.close()
    except BaseException:
        server.kill()
        raise
    _, spans = read_report(server.report, server.spawned)
    return {
        "setup_s": ready - server.spawned,
        "wall_s": max(lane.last_received for lane in lanes)
        - min(lane.first_sent for lane in lanes),
        "lane_walls": [lane.last_received - lane.first_sent for lane in lanes],
        "records": records,
        "counters": counters,
        "finished": finished,
        "cache_dir": server.cache,
        "spans": spans,
    }


# -- correctness ----------------------------------------------------------------


def check_replies(runs: list[dict], tally: OpTally, sample_seed: int) -> dict:
    """Every reply of every server run (each with the ``stream`` it
    replayed) checked; failures marked in *tally*.  Returns a summary
    of what was verified."""
    by_mapping: dict[str, list] = {}
    sessions: dict[tuple, dict] = {}
    for run_index, run in enumerate(runs):
        stream = run["stream"]
        distinct = {mapping_key(op["mapping"]) for op in stream if op["kind"] == "simulate"}
        counters = run["counters"]
        run["distinct_mappings"] = len(distinct)
        count_ok = (
            run["finished"].returncode == 0
            and counters.get("serve.executed", 0) == len(distinct)
            and counters.get("serve.busy", 0) == 0
        )
        for position, record in enumerate(run["records"]):
            op_id = (run_index, position)
            reply = record["reply"]
            ok = bool(reply.get("ok")) and count_ok
            tally.attempt(op_id, record["kind"], ok)
            op = stream[record["op"]]
            if record["kind"] == "simulate":
                by_mapping.setdefault(mapping_key(op["mapping"]), []).append(
                    (op_id, reply.get("result"))
                )
            else:
                entry = sessions.setdefault(
                    (run_index, record["op"]),
                    {"gain": op["gain"], "ops": [], "summaries": [], "backend": None},
                )
                entry["ops"].append(op_id)
                if record["kind"] == "session.open":
                    entry["backend"] = reply.get("backend")
                if reply.get("summary") is not None:
                    entry["summaries"].append(reply["summary"])
        run["count_ok"] = count_ok

    # One mapping, one answer: identical across tiers and server lives.
    for key, replies in by_mapping.items():
        first = replies[0][1]
        if any(result != first for _, result in replies):
            tally.fail([op_id for op_id, _ in replies])

    # Against the program run in-process: a seeded sample of mappings,
    # every session summary.
    local = _LocalReference()
    rng = random.Random(sample_seed)
    sample = rng.sample(sorted(by_mapping), k=min(8, len(by_mapping)))
    for key in sample:
        expected = local.simulate(json.loads(key))
        replies = by_mapping[key]
        if replies[0][1] != expected:
            tally.fail([op_id for op_id, _ in replies])
    for entry in sessions.values():
        expected = local.session_summary(entry["gain"])
        if (
            entry["backend"] != "batched"
            or not entry["summaries"]
            or any(summary != expected for summary in entry["summaries"])
        ):
            tally.fail(entry["ops"])
    return {
        "mappings_touched": len(by_mapping),
        "sampled_in_process": len(sample),
        "sessions_checked": len(sessions),
    }


class _LocalReference:
    """The same answers computed in this process, without the server."""

    def __init__(self) -> None:
        from repro.engine import ResultCache, SimulationSession
        from repro.experiments import default_context

        context = default_context()
        self.chip = context.chip
        self.options = context.options
        self.session = SimulationSession(
            self.chip, self.options, cache=ResultCache(), executor="serial"
        )
        self._summaries: dict[float, dict] = {}

    @staticmethod
    def _wire(value):
        return json.loads(json.dumps(value))

    def simulate(self, mapping: list[dict]) -> dict:
        from repro.serve.protocol import decode_request, encode_result

        request = decode_request({"mapping": mapping}, self.options, n_cores=self.chip.n_cores)
        result = self.session.run(list(request.mapping), request.tag)
        return self._wire(encode_result(result))

    def session_summary(self, gain: float) -> dict:
        if gain not in self._summaries:
            from repro.control.controllers import IntegralPowerController
            from repro.control.loop import ClosedLoopRun
            from repro.control.study import CONTROL_RUN_TAG
            from repro.engine.stepping import SteppingSession
            from repro.measure.runit import RUnit, RUnitConfig
            from repro.serve.protocol import decode_request

            request = decode_request(
                {"mapping": SESSION_MAPPING}, self.options, n_cores=self.chip.n_cores
            )
            loop = ClosedLoopRun(
                SteppingSession(
                    self.chip,
                    list(request.mapping),
                    request.options,
                    run_tag=CONTROL_RUN_TAG,
                    windows_per_segment=WINDOWS_PER_SEGMENT,
                ),
                IntegralPowerController(self.chip.vnom, setpoint=0.85, gain=gain),
                runit=RUnit(RUnitConfig(), self.chip.vnom),
            )
            self._summaries[gain] = self._wire(loop.run())
        return self._summaries[gain]
