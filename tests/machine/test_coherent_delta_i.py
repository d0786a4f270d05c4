"""The coherent-ΔI stimulus term against a naive per-window scan.

``ChipRunner._coherent_delta_i`` evaluates every coherence window at
once with a grouped per-core reduction; the scan below walks the
windows one by one, exactly as the quantity is defined, and the two
must agree bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine.runner import ChipRunner, RunOptions
from repro.machine.workload import CurrentProgram, SyncSpec, idle_program
from repro.machine.tod import TOD_STEP


def naive_coherent_delta_i(chip, trains) -> list[float]:
    """Per-core maximum weighted rising-ΔI over every window that ends
    at an event, one window at a time."""
    window = chip.config.ssn_window
    port_to_core = {port: i for i, port in enumerate(chip.core_ports)}
    events = []                       # (time, core, weighted amplitude)
    for train in trains:
        rising = train.deltas > 0
        times = train.times[rising]
        impulsiveness = 1.0
        if times.size > 1:
            period = float(np.min(np.diff(np.sort(times))))
            impulsiveness = min(1.0, period / (2.0 * window))
        core = port_to_core[train.port]
        events += [
            (float(t), core, float(d) * impulsiveness)
            for t, d in zip(times, train.deltas[rising])
        ]
    if not events:
        return [0.0] * chip.n_cores
    order = np.argsort([e[0] for e in events], kind="stable")
    events = [events[i] for i in order]
    per_core = np.zeros((len(events), chip.n_cores))
    for end, (t_end, _, _) in enumerate(events):
        for t, core, amp in events[:end + 1]:
            if t >= t_end - window:
                per_core[end, core] = max(per_core[end, core], amp)
    totals = per_core @ chip.coupling_matrix.T
    return [float(v) for v in totals.max(axis=0)]


def random_mapping(rng: np.random.Generator, n_cores: int):
    """Idle cores, steady loads, and bursting programs that are either
    phase-randomized or synchronized (some sharing one offset, so their
    edges coincide)."""
    shared_offset = int(rng.integers(0, 4)) * TOD_STEP
    mapping = []
    for _ in range(n_cores):
        kind = rng.integers(0, 5)
        if kind == 0:
            mapping.append(None)
        elif kind == 1:
            mapping.append(idle_program(float(rng.uniform(5.0, 15.0))))
        else:
            sync = None
            if kind >= 3:
                offset = (
                    shared_offset if kind == 3
                    else int(rng.integers(0, 8)) * TOD_STEP
                )
                sync = SyncSpec(
                    offset=offset, events_per_sync=int(rng.integers(1, 30))
                )
            i_low = float(rng.uniform(5.0, 15.0))
            mapping.append(CurrentProgram(
                name="random",
                i_low=i_low,
                i_high=i_low + float(rng.uniform(1.0, 20.0)),
                freq_hz=float(10 ** rng.uniform(4.0, 8.5)),
                rise_time=float(rng.uniform(1e-9, 12e-9)),
                sync=sync,
            ))
    return mapping


@pytest.mark.parametrize("seed", range(12))
def test_matches_naive_window_scan(chip, seed):
    runner = ChipRunner(chip)
    options = RunOptions(segments=2, base_samples=256, seed=seed)
    rng = np.random.default_rng(seed)
    mapping = random_mapping(rng, chip.n_cores)
    for segment in range(options.segments):
        trains = runner._build_trains(mapping, options, f"t{seed}", segment)
        assert runner._coherent_delta_i(mapping, trains, options) == (
            naive_coherent_delta_i(chip, trains)
        )


def test_all_idle_is_zero(chip):
    runner = ChipRunner(chip)
    options = RunOptions(segments=1, base_samples=256)
    mapping = [None] * chip.n_cores
    trains = runner._build_trains(mapping, options, "idle", 0)
    assert runner._coherent_delta_i(mapping, trains, options) == (
        [0.0] * chip.n_cores
    )
