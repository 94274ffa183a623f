"""Month-axis arithmetic and closed-interval behaviour."""

import numpy as np
import pytest

from tsqa.intervals import (
    MAX_MONTH,
    MIN_MONTH,
    MonthInterval,
    format_year_month,
    index_to_year_month,
    month_index,
    parse_year_month,
    year_span,
)


def test_month_index_known_points():
    assert month_index(1987, 1) == 23844
    assert month_index(1987, 12) == 23855
    assert month_index(1000, 1) == MIN_MONTH
    assert month_index(2999, 12) == MAX_MONTH


def test_month_index_rejects_out_of_range():
    with pytest.raises(ValueError):
        month_index(999, 1)
    with pytest.raises(ValueError):
        month_index(1987, 13)
    with pytest.raises(ValueError):
        month_index(1987, 0)


def test_index_round_trip_random():
    rng = np.random.default_rng(0)
    for _ in range(500):
        year = int(rng.integers(1000, 3000))
        month = int(rng.integers(1, 13))
        idx = month_index(year, month)
        assert index_to_year_month(idx) == (year, month)


def test_year_span_covers_full_years():
    span = year_span(1966, 1972)
    assert span.start == 23592
    assert span.end == 23675
    assert span.length_months() == 7 * 12


def test_year_span_single_year():
    span = year_span(1984, 1984)
    assert span.length_months() == 12
    assert span.start == month_index(1984, 1)
    assert span.end == month_index(1984, 12)


def test_interval_validation():
    with pytest.raises(ValueError):
        MonthInterval(month_index(1990, 2), month_index(1990, 1))
    with pytest.raises(ValueError):
        MonthInterval(MIN_MONTH - 1, MIN_MONTH)


def test_open_ends_clamp():
    iv = MonthInterval(None, month_index(1980, 6))
    assert iv.lo == MIN_MONTH
    iv2 = MonthInterval(month_index(1980, 6), None)
    assert iv2.hi == MAX_MONTH


def test_intersects_and_overlap_brute_force():
    # overlap_months must equal the size of the set intersection of the
    # closed integer ranges
    rng = np.random.default_rng(1)
    base = month_index(1950, 1)
    for _ in range(300):
        a0 = base + int(rng.integers(0, 200))
        a1 = a0 + int(rng.integers(0, 60))
        b0 = base + int(rng.integers(0, 200))
        b1 = b0 + int(rng.integers(0, 60))
        a = MonthInterval(a0, a1)
        b = MonthInterval(b0, b1)
        truth = len(set(range(a0, a1 + 1)) & set(range(b0, b1 + 1)))
        assert a.overlap_months(b) == truth
        assert a.intersects(b) == (truth > 0)


def test_contains_endpoints():
    iv = year_span(1990, 1991)

    def month(idx):
        return MonthInterval(idx, idx)

    assert iv.intersects(month(iv.start))
    assert iv.intersects(month(iv.end))
    assert not iv.intersects(month(iv.start - 1))
    assert not iv.intersects(month(iv.end + 1))


def test_parse_and_format_year_month():
    assert parse_year_month("1996-07") == month_index(1996, 7)
    assert format_year_month(month_index(1996, 7)) == "1996-07"
    with pytest.raises(ValueError):
        parse_year_month("1996/07")


@pytest.mark.parametrize("text", ["1996-07\n", "1996-07 ", " 1996-07", "1996-7", "x1996-07"])
def test_parse_year_month_reads_the_whole_string(text):
    with pytest.raises(ValueError, match="bad year-month literal"):
        parse_year_month(text)
