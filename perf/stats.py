"""The two order statistics the benchmark reports and judges by."""

from __future__ import annotations

import statistics


def p90(values: list[float]) -> float:
    """The 90th percentile (inclusive method; a lone value is its own)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def relative_iqr(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0
