"""Bench A6: solver cross-validation on the reference chip.

The exact modal engine and the trapezoidal MNA engine must tell the
same story about the chip's step response — and the modal path is the
one fast enough to power the experiment suite.  The precompiled batched
chip kernel must in turn reproduce the modal runner's waveforms within
its pinned tolerance, while amortizing a one-time compile across a
whole sweep of runs.
"""

import time

import numpy as np

from repro.machine.chip import reference_chip
from repro.machine.runner import ChipRunner, RunOptions
from repro.machine.workload import CurrentProgram, SyncSpec
from repro.pdn.kernels import KERNEL_TOLERANCE_V, compile_kernel
from repro.pdn.mna import simulate_transient
from repro.pdn.state_space import ModalSystem, build_state_space
from repro.pdn.topology import build_chip_netlist
from repro.pdn.zec12 import reference_chip_parameters


def _cross_validate():
    net = build_chip_netlist(reference_chip_parameters())
    t0 = time.perf_counter()
    modal = ModalSystem(build_state_space(net))
    t_modal_build = time.perf_counter() - t0

    t0 = time.perf_counter()
    mna = simulate_transient(
        net, {"vrm": 0.0, "load_core0": 1.0},
        t_end=2e-6, dt=0.5e-9, observe=["core0"],
    )
    t_mna = time.perf_counter() - t0

    t0 = time.perf_counter()
    exact = modal.step_response("load_core0", ["core0"], mna.times)[0]
    t_modal_eval = time.perf_counter() - t0

    scale = np.abs(exact).max()
    err = np.abs(mna.voltages["core0"][1:] - exact[1:]).max() / scale
    return err, t_modal_build, t_modal_eval, t_mna


def test_solver_agreement(benchmark):
    err, t_build, t_eval, t_mna = benchmark.pedantic(
        _cross_validate, rounds=1, iterations=1
    )
    print(f"\nmax relative disagreement: {err*100:.2f}%")
    print(f"modal build {t_build*1e3:.0f} ms, modal eval {t_eval*1e3:.1f} ms, "
          f"MNA transient {t_mna*1e3:.0f} ms")
    assert err < 0.05


def _didt(freq_hz, sync=SyncSpec(offset=0.0, events_per_sync=1000)):
    return CurrentProgram(
        name="bench-didt",
        i_low=14.0,
        i_high=32.0,
        freq_hz=freq_hz,
        rise_time=11e-9,
        sync=sync,
    )


#: Unsynchronized low-frequency stimuli: every core draws its own burst
#: phase and each segment spans several slow-tier chunks (~81 µs each
#: on the reference chip), so these runs exercise the kernel's
#: multi-chunk slow tier.
_LONG_SEGMENT_FREQS = (16e3, 40e3)


def _kernel_cross_validate():
    chip = reference_chip()
    runner = ChipRunner(chip)
    options = RunOptions(segments=4, base_samples=1536, collect_waveforms=True)
    synced = [[_didt(freq)] * 6 for freq in (1.3e6, 2.6e6, 5.2e6, 10.4e6)]
    unsynced = [[_didt(freq, sync=None)] * 6 for freq in _LONG_SEGMENT_FREQS]
    mappings = synced + unsynced
    tags = [f"bench{i}" for i in range(len(mappings))]

    t0 = time.perf_counter()
    reference = [
        runner.run(mapping, options, tag)
        for mapping, tag in zip(mappings, tags)
    ]
    t_reference = time.perf_counter() - t0

    t0 = time.perf_counter()
    kernel = compile_kernel(chip.response_library)
    t_compile = time.perf_counter() - t0
    t0 = time.perf_counter()
    batched = [
        runner.run(mapping, options, tag, kernel=kernel)
        for mapping, tag in zip(mappings, tags)
    ]
    t_batched = time.perf_counter() - t0

    worst = [0.0] * len(mappings)
    for i, (ref, fast) in enumerate(zip(reference, batched)):
        for node, (_, v_ref) in ref.waveforms.items():
            worst[i] = max(
                worst[i], np.abs(fast.waveforms[node][1] - v_ref).max()
            )
    worst_synced = max(worst[:len(synced)])
    worst_long = max(worst[len(synced):])
    return worst_synced, worst_long, t_reference, t_compile, t_batched


def test_batched_kernel_agreement(benchmark):
    """The compiled-kernel fast path vs the per-run reference solve:
    waveforms agree within the kernel's pinned tolerance, for short
    synchronized segments and for long multi-chunk ones alike."""
    worst, worst_long, t_reference, t_compile, t_batched = (
        benchmark.pedantic(_kernel_cross_validate, rounds=1, iterations=1)
    )
    print(f"\nworst |dv| kernel vs reference: {worst:.3e} V "
          f"(budget {KERNEL_TOLERANCE_V:.0e} V)")
    print(f"worst |dv| on long multi-chunk segments: {worst_long:.3e} V")
    print(f"reference solve {t_reference*1e3:.0f} ms, kernel compile "
          f"{t_compile*1e3:.0f} ms, batched solve {t_batched*1e3:.0f} ms")
    assert worst < KERNEL_TOLERANCE_V
    assert worst_long < KERNEL_TOLERANCE_V
