import pytest

import stats


def test_nearest_rank_value_and_count_beyond():
    values = list(range(1, 101))          # 1..100
    assert stats.nearest_rank(values, 50) == (50, 50)
    assert stats.nearest_rank(values, 90) == (90, 10)
    assert stats.nearest_rank(values, 99.9) == (100, 0)
    assert stats.nearest_rank([7.0], 50) == (7.0, 0)
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)


@pytest.mark.parametrize("n, percentile", [
    (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, percentile):
    values = [float(v) for v in range(n, 0, -1)]   # unsorted on purpose
    t = stats.tail(values)
    if percentile is None:
        assert t is None
        return
    assert t["percentile"] == percentile
    assert t["samples"] == n
    assert t["beyond"] >= stats.TAIL_MIN_BEYOND
    assert sum(v > t["value"] for v in values) == t["beyond"]
    higher = [p for p in stats.TAIL_LADDER if p > percentile]
    for p in higher:
        assert stats.nearest_rank(values, p)[1] < stats.TAIL_MIN_BEYOND
