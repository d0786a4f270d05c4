"""Per-layer metrics of a traced run, computed from its spans and the
program's own counters."""

from __future__ import annotations

from spans import descendants, layer_of, parents, self_times

#: The measured layers (the ``repro`` packages, plus the import).
LAYERS = (
    "import", "core", "chips", "pdn", "machine", "measure", "engine",
    "experiments", "serve", "control",
)


class SpanIndex:
    """Durations, self times and work counts of one run's spans."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.parent_of = parents(spans)
        self.self_s = self_times(spans, self.parent_of)
        self._by_id = {span["id"]: span for span in spans}

    def _named(self, name: str) -> list[dict]:
        return [span for span in self.spans if span["name"] == name]

    def _has_ancestor(self, span: dict, name: str) -> bool:
        parent = self.parent_of.get(span["id"])
        while parent in self._by_id:
            if self._by_id[parent]["name"] == name:
                return True
            parent = self.parent_of.get(parent)
        return False

    def inclusive(self, name: str) -> float:
        """Time inside calls named *name* (nested re-entries once)."""
        return sum(
            span["end"] - span["start"]
            for span in self._named(name)
            if not self._has_ancestor(span, name)
        )

    def own(self, name: str) -> float:
        """Self time of the calls named *name*."""
        return sum(self.self_s[span["id"]] for span in self._named(name))

    def calls(self, name: str) -> int:
        return len(self._named(name))

    def info(self, name: str, key: str) -> int:
        return sum(span.get("info", {}).get(key, 0) for span in self._named(name))

    def nested_calls(self, name: str, under: str) -> int:
        return sum(1 for span in self._named(name) if self._has_ancestor(span, under))

    def layer_self(self) -> dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            layer = layer_of(span["name"])
            totals[layer] = totals.get(layer, 0.0) + self.self_s[span["id"]]
        return totals

    def members_under(self, root_name: str) -> set[str]:
        roots = {span["id"] for span in self._named(root_name)}
        return descendants(self.parent_of, roots)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    index: SpanIndex,
    counters: dict,
    *,
    attributed_s: float,
    wall_s: float,
    overhead_frac: float,
    cache_write_bytes: int,
    export_bytes: int,
) -> dict[str, float]:
    """Every per-layer metric of one traced run.

    *attributed_s* is the layer self time that falls inside the
    measured wall time *wall_s* (for the server, inside the clients'
    requests).  ``engine.dedup_ratio`` is unique runs over requested
    runs; every unique run is either executed or read from disk once.
    """
    runs_requested = counters.get("engine.runs", 0)
    runs_executed = counters.get("engine.runs_executed", 0)
    epoch_solves = index.nested_calls("pdn.evaluate", under="pdn.stepping")
    simulate_replies = sum(
        counters.get(f"serve.tier.{tier}", 0)
        for tier in ("hot", "cache", "executed", "coalesced")
    )
    metrics = {
        "import.s": index.inclusive("import"),
        "core.epi_profile.s": index.inclusive("core.epi_profile"),
        "core.max_power_search.s": index.inclusive("core.max_power_search"),
        "core.sequences.s": index.inclusive("core.sequences"),
        "core.stressmark_build.s": index.inclusive("core.stressmark_build"),
        "core.stressmark_build.calls": index.calls("core.stressmark_build"),
        "chips.build_chip.s": index.inclusive("chips.build_chip"),
        "pdn.compile_kernel.s": index.inclusive("pdn.compile_kernel"),
        "pdn.solve_batch.s": index.inclusive("pdn.solve_batch"),
        "pdn.solve_batch.calls": index.calls("pdn.solve_batch"),
        "pdn.solve_batch.samples": index.info("pdn.solve_batch", "samples"),
        "pdn.stepping.s": index.inclusive("pdn.stepping"),
        "pdn.stepping.calls": index.calls("pdn.stepping"),
        "machine.build_stimulus.s": index.inclusive("machine.build_stimulus"),
        "machine.build_stimulus.calls": index.calls("machine.build_stimulus"),
        "machine.edges": index.info("machine.build_stimulus", "edges"),
        "machine.measure.s": index.own("machine.measure"),
        "measure.vmin.s": index.own("measure.vmin"),
        "engine.fingerprint.s": index.inclusive("engine.fingerprint"),
        "engine.fingerprint.calls": index.calls("engine.fingerprint"),
        "engine.cache_get.s": index.inclusive("engine.cache_get"),
        "engine.cache_get.calls": index.calls("engine.cache_get"),
        "engine.cache.disk_hits": counters.get("engine.cache.disk_hits", 0),
        "engine.cache.misses": counters.get("engine.cache.misses", 0),
        "engine.cache.read_bytes": index.info("engine.cache_read", "bytes"),
        "engine.cache_put.s": index.inclusive("engine.cache_put"),
        "engine.cache.write_bytes": cache_write_bytes,
        "engine.runs_requested": runs_requested,
        "engine.runs_executed": runs_executed,
        "engine.dedup_ratio": _ratio(
            runs_executed + counters.get("engine.cache.disk_hits", 0), runs_requested
        ),
        "engine.session.self_s": index.own("engine.session"),
        "experiments.driver.self_s": index.own("experiments.driver"),
        "experiments.export.s": index.inclusive("experiments.export"),
        "experiments.export.bytes": export_bytes,
        "serve.decode.s": index.inclusive("serve.decode"),
        "serve.encode.s": index.inclusive("serve.encode"),
        "serve.hot.hit_ratio": _ratio(
            counters.get("serve.tier.hot", 0), simulate_replies
        ),
        "serve.executed": counters.get("serve.executed", 0),
        "serve.coalesced": counters.get("serve.coalesced", 0),
        "serve.busy": counters.get("serve.busy", 0),
        "serve.run_many.s": index.inclusive("serve.run_many"),
        "serve.client.self_s": index.own("serve.client"),
        "serve.handle.self_s": index.own("serve.handle"),
        "control.step.s": index.inclusive("control.step"),
        "control.step.calls": index.calls("control.step"),
        "control.epoch_solves": epoch_solves,
        "control.windows_per_solve": _ratio(index.calls("pdn.stepping"), epoch_solves),
        "control.session_open.s": index.inclusive("control.session_open"),
        "obs.tracing_overhead_frac": overhead_frac,
        "unattributed_frac": 1.0 - _ratio(attributed_s, wall_s),
    }
    for layer, seconds in index.layer_self().items():
        metrics[f"self_s.{layer}"] = seconds
    return metrics
