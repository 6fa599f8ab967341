"""Statistics helpers of the benchmark: medians, quartiles, the tail
percentile rule and ratios that carry their base."""

import statistics

# Percentiles considered for a latency tail, highest last.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two samples")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil(n * p / 100)
    return ordered[int(rank) - 1]


def tail_percentile(values, min_beyond=10):
    """Highest percentile of TAIL_PERCENTILES that has at least `min_beyond`
    samples strictly beyond it, as (p, value); None when even the median has
    fewer."""
    best = None
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n - n * p / 100.0 >= min_beyond:
            best = (p, percentile(values, p))
    return best


def ratio(numerator, denominator, base):
    """A ratio that names its base: {"value", "base", "base_count"}.
    A zero base gives value 0 (nothing to take a share of)."""
    value = numerator / denominator if denominator else 0.0
    return {"value": value, "base": base, "base_count": denominator}
