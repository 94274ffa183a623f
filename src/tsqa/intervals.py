"""Month-resolution time intervals.

All temporal arithmetic in this package happens on a single integer axis:
month index = year * 12 + (month - 1).  Intervals are closed on both ends;
an end of None means the interval is open on that side and is clamped to
the representable range for comparisons.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

MIN_YEAR = 1000
MAX_YEAR = 2999
MIN_MONTH = MIN_YEAR * 12
MAX_MONTH = MAX_YEAR * 12 + 11

_YM_RE = re.compile(r"(\d{4})-(\d{2})")


def month_index(year: int, month: int) -> int:
    """Map (year, month in 1..12) onto the month axis."""
    if not MIN_YEAR <= year <= MAX_YEAR:
        raise ValueError(f"year {year} outside [{MIN_YEAR}, {MAX_YEAR}]")
    if not 1 <= month <= 12:
        raise ValueError(f"month {month} outside [1, 12]")
    return year * 12 + (month - 1)


def index_to_year_month(idx: int) -> tuple[int, int]:
    if not MIN_MONTH <= idx <= MAX_MONTH:
        raise ValueError(f"month index {idx} outside representable range")
    return idx // 12, idx % 12 + 1


@lru_cache(maxsize=4096)  # datasets repeat a few hundred distinct months many times
def parse_year_month(text: str) -> int:
    """Parse "YYYY-MM" into a month index."""
    m = _YM_RE.fullmatch(text)  # the whole string, so "1950-01\n" is rejected
    if m is None:
        raise ValueError(f"bad year-month literal {text!r}, expected YYYY-MM")
    return month_index(int(m.group(1)), int(m.group(2)))


def format_year_month(idx: int) -> str:
    year, month = index_to_year_month(idx)
    return f"{year:04d}-{month:02d}"


@dataclass(frozen=True)
class MonthInterval:
    """Closed interval [start, end] of month indices; None = open end."""

    start: Optional[int]
    end: Optional[int]

    def __post_init__(self) -> None:
        if self.start is not None and not MIN_MONTH <= self.start <= MAX_MONTH:
            raise ValueError(f"interval start {self.start} out of range")
        if self.end is not None and not MIN_MONTH <= self.end <= MAX_MONTH:
            raise ValueError(f"interval end {self.end} out of range")
        if self.start is not None and self.end is not None and self.start > self.end:
            raise ValueError(f"empty interval: start {format_year_month(self.start)} > end {format_year_month(self.end)}")

    @property
    def lo(self) -> int:
        return MIN_MONTH if self.start is None else self.start

    @property
    def hi(self) -> int:
        return MAX_MONTH if self.end is None else self.end

    def intersects(self, other: "MonthInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def overlap_months(self, other: "MonthInterval") -> int:
        """Number of shared months (0 when disjoint)."""
        return max(0, min(self.hi, other.hi) - max(self.lo, other.lo) + 1)

    def length_months(self) -> int:
        return self.hi - self.lo + 1


def year_span(first_year: int, last_year: int) -> MonthInterval:
    """[January of first_year, December of last_year]."""
    return MonthInterval(month_index(first_year, 1), month_index(last_year, 12))
