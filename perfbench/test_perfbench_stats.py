"""The "highest percentile with at least ten samples beyond it" rule."""

import benchstats
import pytest


def test_nearest_rank_returns_measured_values():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert benchstats.nearest_rank(values, 50) == 3.0
    assert benchstats.nearest_rank(values, 100) == 5.0
    assert benchstats.nearest_rank(values, 1) == 1.0
    with pytest.raises(ValueError):
        benchstats.nearest_rank([], 50)


@pytest.mark.parametrize("n, q, ok", [
    (100, 90, True),     # rank 90: samples 91..100 lie beyond -> exactly ten
    (99, 90, False),     # rank 90: only nine beyond
    (1000, 99, True),
    (999, 99, False),
    (20, 50, True),
    (19, 50, False),
    (0, 50, False),
])
def test_reportable_needs_ten_samples_beyond(n, q, ok):
    assert benchstats.reportable(n, q) is ok


def test_beyond_counts_samples_strictly_above_the_percentile():
    values = list(range(1, 101))
    p90 = benchstats.nearest_rank(values, 90)
    assert sum(v > p90 for v in values) == benchstats.beyond(100, 90) == 10


@pytest.mark.parametrize("n, highest", [
    (19, None), (20, 50), (40, 75), (100, 90), (200, 95), (1000, 99), (10000, 99.9),
])
def test_the_highest_reportable_percentile_grows_with_the_sample(n, highest):
    candidates = (50, 75, 90, 95, 99, 99.9)
    ok = [q for q in candidates if benchstats.reportable(n, q)]
    assert (ok[-1] if ok else None) == highest
    # Reportability is monotone: every lower candidate is reportable too.
    assert ok == list(candidates[:len(ok)])


def test_percentile_or_none_refuses_thin_tails():
    values = [float(v) for v in range(99)]
    assert benchstats.percentile_or_none(values, 90) is None
    assert benchstats.percentile_or_none(values + [99.0], 90) == 89.0
