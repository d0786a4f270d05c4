"""Reference vs compiled-kernel solve paths through the runner: the
two backends must produce interchangeable runs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine.runner import ChipRunner, RunOptions
from repro.machine.workload import CurrentProgram, SyncSpec, idle_program
from repro.pdn.kernels import KERNEL_TOLERANCE_V


def didt(i_low=14.0, i_high=32.0, freq=2.6e6, sync=False, offset=0.0):
    return CurrentProgram(
        name="didt-backend",
        i_low=i_low,
        i_high=i_high,
        freq_hz=freq,
        rise_time=11e-9,
        sync=SyncSpec(offset=offset, events_per_sync=1000) if sync else None,
    )


@pytest.fixture(scope="module")
def runner(chip):
    return ChipRunner(chip)


@pytest.fixture(scope="module")
def kernel(chip):
    return chip.compiled_kernel


def assert_equivalent(reference, fast):
    for ref, quick in zip(reference.measurements, fast.measurements):
        assert quick.coherent_delta_i == ref.coherent_delta_i
        assert abs(quick.v_min - ref.v_min) < KERNEL_TOLERANCE_V
        assert abs(quick.v_max - ref.v_max) < KERNEL_TOLERANCE_V
    for node, (times, volts) in reference.waveforms.items():
        t_fast, v_fast = fast.waveforms[node]
        assert np.array_equal(t_fast, times)
        assert np.abs(v_fast - volts).max() < KERNEL_TOLERANCE_V


MAPPINGS = {
    "synchronized": lambda: [didt(sync=True)] * 6,
    "unsynchronized": lambda: [didt()] * 6,
    "misaligned": lambda: [didt(sync=True, offset=i * 62.5e-9)
                           for i in range(6)],
    "partial-idle": lambda: [didt(sync=True)] * 3 + [None] * 3,
    "all-idle": lambda: [idle_program(13.5)] * 6,
}


class TestRunEquivalence:
    @pytest.mark.parametrize("shape", sorted(MAPPINGS))
    def test_backends_agree(self, runner, kernel, shape):
        mapping = MAPPINGS[shape]()
        options = RunOptions(
            segments=2, base_samples=1024, collect_waveforms=True
        )
        reference = runner.run(mapping, options, run_tag=shape)
        fast = runner.run(mapping, options, run_tag=shape, kernel=kernel)
        assert_equivalent(reference, fast)

    def test_stimulus_is_backend_independent(self, runner, chip):
        """build_stimulus + execute on either backend equals run():
        the stimulus phase never sees the kernel."""
        mapping = [didt(sync=True)] * 6
        options = RunOptions(segments=2, base_samples=1024)
        batch = runner.build_stimulus(mapping, options, "split")
        via_reference = runner.execute(batch)
        via_kernel = runner.execute(batch, kernel=chip.compiled_kernel)
        whole = runner.run(mapping, options, "split")
        assert via_reference.p2p_by_core == whole.p2p_by_core
        assert_equivalent(via_reference, via_kernel)
