"""Date handling.

Dates are stored as ``int32`` day numbers since the Unix epoch
(1970-01-01). All conversions are pure-integer math (proleptic Gregorian
via :mod:`datetime`), vectorized where it matters.
"""

from __future__ import annotations

import datetime as _dt

import numpy as np

_EPOCH = _dt.date(1970, 1, 1)


def date_to_days(iso: str) -> int:
    """``'1994-01-01' -> 8766`` (days since epoch)."""
    y, m, d = iso.split("-")
    return (_dt.date(int(y), int(m), int(d)) - _EPOCH).days


def days_to_date(days: int) -> str:
    """Inverse of :func:`date_to_days`; returns ISO string."""
    return (_EPOCH + _dt.timedelta(days=int(days))).isoformat()


def days_to_year(days: np.ndarray | int):
    """Vectorized extraction of the calendar year from day numbers.

    Uses numpy's datetime64 arithmetic so the hot path stays in C.
    """
    d64 = np.asarray(days, dtype="datetime64[D]")
    years = d64.astype("datetime64[Y]").astype(np.int64) + 1970
    if np.isscalar(days) or getattr(days, "shape", None) == ():
        return int(years)
    return years.astype(np.int64)


def days_to_month(days: np.ndarray | int):
    """Vectorized extraction of the month (1-12) from day numbers."""
    d64 = np.asarray(days, dtype="datetime64[D]")
    months = (d64.astype("datetime64[M]").astype(np.int64) % 12) + 1
    if np.isscalar(days) or getattr(days, "shape", None) == ():
        return int(months)
    return months.astype(np.int64)


def add_months(days: int, months: int) -> int:
    """Day number shifted by a number of calendar months (SQL INTERVAL)."""
    d = _EPOCH + _dt.timedelta(days=int(days))
    total = d.year * 12 + (d.month - 1) + months
    y, m = divmod(total, 12)
    # clamp day-of-month (e.g. Jan 31 + 1 month -> Feb 28)
    last = _days_in_month(y, m + 1)
    day = min(d.day, last)
    return (_dt.date(y, m + 1, day) - _EPOCH).days


def add_years(days: int, years: int) -> int:
    return add_months(days, 12 * years)


def _days_in_month(year: int, month: int) -> int:
    if month == 12:
        nxt = _dt.date(year + 1, 1, 1)
    else:
        nxt = _dt.date(year, month + 1, 1)
    return (nxt - _dt.date(year, month, 1)).days
