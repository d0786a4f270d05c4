"""Span recording and self-time analysis for the traced benchmark runs.

A :class:`Tracer` keeps spans in memory — name, start, end, parent span
and a request id shared by the spans of one request — and writes them
out when the process ends.  :func:`install_program_wrappers` puts the
tracer around the public entry points of each ``repro`` layer from the
outside, by replacing those functions and methods at run time, so the
program's own files stay untouched.

Times come from ``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux),
which all processes on one host share, so spans recorded in the load
process and in the server process land on one time line.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import sys
import threading
import time
import types

__all__ = [
    "Tracer",
    "install_program_wrappers",
    "install_client_wrappers",
    "descendants",
    "layer_of",
    "parents",
    "self_times",
]


class Tracer:
    """In-memory span recorder (thread-safe under the GIL: each thread
    keeps its own stack, finished spans are appended to one list)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._pid = os.getpid()
        self._local = threading.local()

    # -- per-thread context ------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.rid = None
            local.adopted = None
        return local

    def set_rid(self, rid: str | None) -> None:
        """Tag every span this thread opens from now on with *rid*."""
        self._state().rid = rid

    def current(self) -> tuple[str | None, str | None]:
        """(innermost open span id, request id) of this thread — what a
        work item carries to the thread that executes it."""
        state = self._state()
        top = state.stack[-1] if state.stack else state.adopted
        return top, state.rid

    @contextlib.contextmanager
    def adopt(self, context: tuple[str | None, str | None]):
        """Spans this thread opens inside the block become children of
        *context*'s span (handed over from another thread)."""
        state = self._state()
        saved = (state.adopted, state.rid)
        state.adopted, state.rid = context
        try:
            yield
        finally:
            state.adopted, state.rid = saved

    # -- spans ----------------------------------------------------------------
    def begin(self, name: str) -> dict:
        state = self._state()
        parent = state.stack[-1] if state.stack else state.adopted
        span = {
            "id": f"{self._pid}.{next(self._ids)}",
            "name": name,
            "parent": parent,
            "rid": state.rid,
            "start": time.perf_counter(),
        }
        state.stack.append(span["id"])
        return span

    def end(self, span: dict, info: dict | None = None) -> None:
        span["end"] = time.perf_counter()
        if info:
            span["info"] = info
        stack = self._state().stack
        if stack and stack[-1] == span["id"]:
            stack.pop()
        self.spans.append(span)

    def wrap(self, fn, name: str, measure=None):
        """*fn* recorded as span *name*; ``measure(result, args)`` may
        attach a dict of work counts to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            info = None
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    info = measure(result, args)
                return result
            finally:
                self.end(span, info)

        return traced


# -- installing wrappers --------------------------------------------------


def _replace_everywhere(original, replacement) -> None:
    """Point every loaded ``repro`` module's reference to *original*
    (``from x import f`` copies) at *replacement*."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_function(tracer: Tracer, module, attr: str, name: str, measure=None):
    original = getattr(module, attr)
    _replace_everywhere(original, tracer.wrap(original, name, measure))


def _wrap_method(tracer: Tracer, cls, attr: str, name: str, measure=None):
    setattr(cls, attr, tracer.wrap(cls.__dict__[attr], name, measure))


def _wrap_cached_property(tracer: Tracer, cls, attr: str, name: str):
    prop = functools.cached_property(tracer.wrap(cls.__dict__[attr].func, name))
    prop.__set_name__(cls, attr)
    setattr(cls, attr, prop)


def _grid_samples(stimuli) -> int:
    total = 0
    for _, grid in stimuli:
        times = getattr(grid, "times", grid)
        total += int(times.size)
    return total


def _stimulus_edges(batch) -> int:
    return sum(
        int(train.times.size)
        for segment in batch.segments
        for train in segment.trains
    )


def _file_size(path) -> int:
    if path is None:
        return 0
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install_program_wrappers(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer of an
    already imported ``repro`` package."""
    from repro.chips import family as chips_family
    from repro.core import epi, mediumpower, minpower, search
    from repro.core.stressmark import StressmarkBuilder
    from repro.engine import fingerprint
    from repro.engine.cache import ResultCache
    from repro.engine.campaign import CampaignManifest
    from repro.engine.session import SimulationSession
    from repro.experiments import common, exporter, registry
    from repro.machine.chip import Chip
    from repro.machine.runner import ChipRunner
    from repro.measure import vmin
    from repro.pdn.kernels import CompiledChipKernel, SteppingSolver

    # core: stressmark generation.
    _wrap_function(tracer, epi, "generate_epi_profile", "core.epi_profile")
    _wrap_function(
        tracer, search, "search_max_power_sequence", "core.max_power_search"
    )
    _wrap_function(tracer, minpower, "min_power_sequence", "core.sequences")
    _wrap_function(
        tracer, mediumpower, "medium_power_sequence", "core.sequences"
    )
    _wrap_method(tracer, StressmarkBuilder, "__init__", "core.sequences")
    _wrap_method(tracer, StressmarkBuilder, "build", "core.stressmark_build")

    # chips: the spec build plus the lazily built heavy artifacts.
    _wrap_function(tracer, chips_family, "build_chip", "chips.build_chip")
    for attr in ("netlist", "modal", "response_library"):
        _wrap_cached_property(tracer, Chip, attr, "chips.build_chip")

    # pdn: kernel compile, batched solve, windowed stepping.
    _wrap_method(tracer, CompiledChipKernel, "__init__", "pdn.compile_kernel")
    _wrap_method(
        tracer,
        CompiledChipKernel,
        "solve_batch",
        "pdn.solve_batch",
        lambda result, args: {
            "samples": _grid_samples(args[1]) * len(result[0])
            if result
            else 0
        },
    )
    _wrap_method(tracer, CompiledChipKernel, "evaluate", "pdn.evaluate")
    _wrap_method(tracer, SteppingSolver, "solve_window", "pdn.stepping")

    # machine: stimulus construction and the measure phase.
    _wrap_method(
        tracer,
        ChipRunner,
        "build_stimulus",
        "machine.build_stimulus",
        lambda batch, args: {"edges": _stimulus_edges(batch)},
    )
    _wrap_method(tracer, ChipRunner, "execute", "machine.measure")

    # measure: the Vmin search loop.
    _wrap_function(tracer, vmin, "run_vmin_experiment", "measure.vmin")

    # engine: fingerprints, the result cache, sessions, the manifest.
    _wrap_function(tracer, fingerprint, "run_fingerprint", "engine.fingerprint")
    _wrap_method(tracer, ResultCache, "get", "engine.cache_get")
    _wrap_method(
        tracer,
        ResultCache,
        "_disk_get",
        "engine.cache_read",
        lambda value, args: {"bytes": _file_size(args[0]._disk_path(args[1]))},
    )
    _wrap_method(tracer, ResultCache, "put", "engine.cache_put")
    _wrap_method(tracer, SimulationSession, "run", "engine.session")
    _wrap_method(tracer, SimulationSession, "run_many", "engine.session")
    for attr in ("mark_started", "mark_complete", "mark_failed"):
        _wrap_method(tracer, CampaignManifest, attr, "engine.manifest")

    # experiments: context, drivers, exports.
    _wrap_function(tracer, common, "default_context", "experiments.context")
    _wrap_function(tracer, exporter, "export_results", "experiments.export")
    registry._ensure_loaded()
    for experiment_id, (title, driver) in list(registry._REGISTRY.items()):
        registry._REGISTRY[experiment_id] = (
            title,
            tracer.wrap(driver, "experiments.driver"),
        )

    _install_serve_wrappers(tracer)


def _install_serve_wrappers(tracer: Tracer) -> None:
    """Server side of the serve and control layers.

    Request ids: the handler thread of each connection numbers the
    messages it reads, and the load process numbers the requests it
    sends on the same connection, so ``"<client port>:<n>"`` names one
    request on both sides.  Work the handler hands to the executor
    thread carries the handler's span along, so execution nests under
    the request that caused it.
    """
    from repro.control.loop import ClosedLoopRun
    from repro.serve import protocol, server

    _wrap_codec(tracer)
    _wrap_function(tracer, protocol, "decode_request", "serve.decode")
    _wrap_function(tracer, protocol, "encode_result", "serve.encode")
    _wrap_function(tracer, protocol, "encode_observation", "serve.encode")

    handler_cls = server._RequestHandler
    connection_loop = handler_cls.handle

    def handle_connection(handler):
        state = tracer._state()
        state.port = handler.client_address[1]
        state.seq = 0
        return connection_loop(handler)

    handler_cls.handle = handle_connection

    read_message = server.read_message

    def read_next(stream):
        state = tracer._state()
        if hasattr(state, "port"):
            state.seq += 1
            tracer.set_rid(f"{state.port}:{state.seq}")
        return read_message(stream)

    server.read_message = read_next
    server.write_message = tracer.wrap(server.write_message, "serve.write")

    service = server.SimulationService
    _wrap_method(tracer, service, "handle", "serve.handle")
    _wrap_method(tracer, service, "_execute_group", "serve.run_many")
    _wrap_method(tracer, service, "_session_open", "control.session_open")
    _wrap_method(tracer, ClosedLoopRun, "step", "control.step")

    # Work items have __slots__: their handed-over context lives here,
    # keyed by identity (the item is kept alive until it is adopted).
    handoffs: dict[int, tuple] = {}
    for cls in (server._WorkItem, server._ControlWork):
        _stamp_handoff(tracer, cls, handoffs)
    # A batch runs under the first request it serves.
    _adopt_handoff(
        tracer, service, "_process", "serve.executor", lambda args: args[1], handoffs
    )
    _adopt_handoff(
        tracer, service, "_run_control", "serve.control", lambda args: [args[1]], handoffs
    )


def _stamp_handoff(tracer: Tracer, cls, handoffs: dict) -> None:
    init = cls.__init__

    def stamped(self, *args, **kwargs):
        init(self, *args, **kwargs)
        handoffs[id(self)] = (self, tracer.current())

    cls.__init__ = stamped


def _adopt_handoff(tracer: Tracer, cls, attr: str, name: str, items_of, handoffs: dict) -> None:
    method = tracer.wrap(cls.__dict__[attr], name)

    def adopting(*args, **kwargs):
        contexts = [
            handoffs.pop(id(item), (None, (None, None)))[1] for item in items_of(args)
        ]
        with tracer.adopt(contexts[0] if contexts else (None, None)):
            return method(*args, **kwargs)

    setattr(cls, attr, adopting)


def _wrap_codec(tracer: Tracer) -> None:
    """The wire codec: JSON parsing and printing of protocol lines."""
    from repro.serve import protocol

    protocol.json = types.SimpleNamespace(
        loads=tracer.wrap(json.loads, "serve.decode"),
        dumps=tracer.wrap(json.dumps, "serve.encode"),
    )


def install_client_wrappers(tracer: Tracer) -> None:
    """Load-process side: each client round trip is one request span
    (its self time is the transport), with the client codec inside."""
    from repro.serve.client import ServeClient

    _wrap_codec(tracer)
    _wrap_method(tracer, ServeClient, "request", "serve.client")


# -- analysis ---------------------------------------------------------------


def layer_of(name: str) -> str:
    """The layer a span belongs to: the first component of its name."""
    return name.split(".", 1)[0]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of *intervals*."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def parents(spans: list[dict]) -> dict[str, str | None]:
    """Parent span id of every span.

    A span with no parent but a request id becomes a child of the
    parentless span that carries the same request id and started first:
    the server's spans hang under the client's request.
    """
    parent_of = {span["id"]: span.get("parent") for span in spans}
    roots_by_rid: dict[str, str] = {}
    for span in sorted(spans, key=lambda s: s["start"]):
        rid = span.get("rid")
        if rid is None or span.get("parent") is not None:
            continue
        if rid in roots_by_rid:
            parent_of[span["id"]] = roots_by_rid[rid]
        else:
            roots_by_rid[rid] = span["id"]
    return parent_of


def self_times(spans: list[dict], parent_of: dict[str, str | None]) -> dict[str, float]:
    """Self time of every span, keyed by span id.

    A span's interval is first clipped to its parent's clipped interval
    (work handed to another thread may outlive the request that caused
    it); its self time is then its clipped length minus the part of
    that interval its children cover, overlapping children counted once.
    """
    by_id = {span["id"]: span for span in spans}
    clipped: dict[str, tuple[float, float]] = {}

    def interval(span_id: str) -> tuple[float, float]:
        chain = []
        current = span_id
        while current in by_id and current not in clipped:
            chain.append(current)
            current = parent_of.get(current)
        for node in reversed(chain):
            span = by_id[node]
            start, end = span["start"], span["end"]
            parent = parent_of.get(node)
            if parent in clipped:
                lo, hi = clipped[parent]
                start, end = max(start, lo), min(end, hi)
                end = max(end, start)
            clipped[node] = (start, end)
        return clipped[span_id]

    children: dict[str, list[str]] = {}
    for span_id, parent in parent_of.items():
        if parent in by_id:
            children.setdefault(parent, []).append(span_id)
    result = {}
    for span_id in by_id:
        start, end = interval(span_id)
        kids = [interval(child) for child in children.get(span_id, ())]
        result[span_id] = (end - start) - _covered(
            [(a, b) for a, b in kids if b > a]
        )
    return result


def descendants(parent_of: dict[str, str | None], root_ids: set[str]) -> set[str]:
    """Ids of the spans under (and including) *root_ids*."""
    members = set(root_ids)
    for span_id in parent_of:
        chain = []
        current = span_id
        while current is not None and current not in members:
            chain.append(current)
            current = parent_of.get(current)
        if current is not None:
            members.update(chain)
    return members
