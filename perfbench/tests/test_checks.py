"""The export correctness gate."""

from campaigns import KERNEL_TOLERANCE_V, _within_tolerance


def test_voltages_may_differ_within_the_kernel_tolerance_only():
    committed = {"data": {"times": [1e-7, 2e-7], "volts": [1.0, 0.9], "p2p_volts": 0.1}}
    near = {"data": {"times": [1e-7, 2e-7], "volts": [1.0 + 0.9 * KERNEL_TOLERANCE_V, 0.9], "p2p_volts": 0.1 + 1e-6}}
    far = {"data": {"times": [1e-7, 2e-7], "volts": [1.0 + 1.1 * KERNEL_TOLERANCE_V, 0.9], "p2p_volts": 0.1}}
    shifted_time = {"data": {"times": [1e-7, 2.0000001e-7], "volts": [1.0, 0.9], "p2p_volts": 0.1}}
    assert _within_tolerance(committed, committed)
    assert _within_tolerance(committed, near)
    assert not _within_tolerance(committed, far)
    assert not _within_tolerance(committed, shifted_time)
    assert not _within_tolerance(committed, {"data": {"times": [1e-7], "volts": [1.0], "p2p_volts": 0.1}})
