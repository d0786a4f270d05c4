"""The benchmark's own arithmetic: percentiles and failure counting."""

import pytest

from benchstats import OpTally, highest_supported_percentile, percentile


@pytest.mark.parametrize(
    "n, expected",
    [
        (10000, 99.9),
        (1000, 99.0),
        (999, 95.0),
        (200, 95.0),
        (199, 90.0),
        (20, 50.0),
        (19, None),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert highest_supported_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_fail_frac_counts_each_failed_operation_once():
    tally = OpTally()
    for op in range(8):
        tally.attempt(op, "simulate", ok=op != 0)
    tally.attempt(8, "session.step")
    tally.attempt(9, "session.step")
    # A correctness check fails for operations 0 (already failed), 2, 9.
    tally.fail([0, 2, 9])
    assert tally.attempted == 10
    assert tally.failed == 3
    assert tally.fail_frac == pytest.approx(0.3)
    assert tally.by_kind() == {
        "session.step": {"sent": 2, "succeeded": 1, "failed": 1},
        "simulate": {"sent": 8, "succeeded": 6, "failed": 2},
    }


def test_a_check_cannot_fail_an_operation_never_attempted():
    tally = OpTally()
    tally.attempt("a", "export")
    with pytest.raises(KeyError):
        tally.fail(["b"])
    assert OpTally().fail_frac == 0.0
