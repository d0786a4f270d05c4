"""Property-based equivalence of the compiled chip kernel (hypothesis).

``CompiledChipKernel.evaluate`` must match the reference superposition
``assemble_voltage`` within ``KERNEL_TOLERANCE_V`` for any multi-port
edge train, including the cases where the tier split is decided by a
float comparison: coincident edges, edges exactly on a sample instant,
edges exactly on the ``t − W`` (window/slow) and ``t − H`` (slow/dc)
seams, and grids spanning several anchored slow-tier chunks.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.pdn.kernels import KERNEL_TOLERANCE_V
from repro.pdn.superposition import EdgeTrain, assemble_voltage

deltas = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


@st.composite
def grids(draw):
    """Sample instants: a short single-chunk segment, or a long one
    (several ~81 µs anchored chunks), optionally starting late."""
    long = draw(st.booleans())
    t_end = draw(st.floats(150e-6, 400e-6) if long else st.floats(2e-6, 40e-6))
    t_start = draw(st.sampled_from([0.0, 0.0, 0.3 * t_end]))
    n = draw(st.integers(min_value=32, max_value=400))
    return np.linspace(t_start, t_end, n)


@st.composite
def stimuli(draw, ports, window, horizon):
    """(trains, times): one or two trains on each of 1-3 ports, mixing
    free edge instants with ones pinned to the tier seams of a drawn
    sample."""
    times = draw(grids())
    t_lo, t_hi = float(times[0]), float(times[-1])
    span = t_hi - t_lo
    trains = []
    chosen = draw(st.lists(st.sampled_from(ports), min_size=1, max_size=3,
                           unique=True))
    for port in chosen:
        for _ in range(draw(st.integers(1, 2))):
            instants = draw(st.lists(
                st.floats(t_lo - 0.2 * span, t_hi + 0.05 * span),
                min_size=1, max_size=6,
            ))
            for kind in draw(st.lists(
                st.sampled_from(["sample", "window", "horizon", "coincident"]),
                max_size=3,
            )):
                t = float(times[draw(st.integers(0, times.size - 1))])
                instants.append({
                    "sample": t,
                    "window": t - window,
                    "horizon": t - horizon,
                    "coincident": instants[0],
                }[kind])
            values = draw(st.lists(deltas, min_size=len(instants),
                                   max_size=len(instants)))
            trains.append(EdgeTrain(port, np.array(instants), np.array(values)))
    return trains, times


def tier_ranges(kernel, times, et):
    """Per-sample edge-range bounds of the three tiers over a sorted
    train: dc ``[0, ks_h)``, slow ``[ks_h, ks_w)``, window
    ``[ks_w, ks_0)`` (``t_e < t − H``, ``t_e < t − W``, ``t_e < t``)."""
    return (
        np.searchsorted(et, times - kernel.horizon, side="left"),
        np.searchsorted(et, times - kernel.window, side="left"),
        np.searchsorted(et, times, side="left"),
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_matches_reference_superposition(chip, data):
    kernel = chip.compiled_kernel
    trains, times = data.draw(stimuli(
        chip.core_ports[:4], float(kernel.window), float(kernel.horizon)
    ))
    nodes = chip.core_nodes
    fast = kernel.evaluate(trains, times, nodes=nodes)
    for row, node in enumerate(nodes):
        reference = assemble_voltage(kernel.library, node, trains, times)
        assert np.abs(fast[row] - reference).max() < KERNEL_TOLERANCE_V

    for port in {train.port for train in trains}:
        et = np.sort(np.concatenate(
            [train.times for train in trains if train.port == port]
        ))
        ks_h, ks_w, ks_0 = tier_ranges(kernel, times, et)
        assert np.all(
            (0 <= ks_h) & (ks_h <= ks_w) & (ks_w <= ks_0) & (ks_0 <= et.size)
        )
