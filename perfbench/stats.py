"""Statistics helpers for the benchmark: medians, percentiles, the
tail rule, run-to-run spread and metric-name validation.

Medians and percentiles use one estimator, Harrell-Davis (see
:func:`percentile`).

Everything here is pure and dependency-free so the benchmark's own
tests can pin it down exactly.
"""

from __future__ import annotations

import math
import re

#: Candidate tail percentiles, highest last.  The tail rule reports the
#: highest of these that still has at least ``TAIL_MIN_BEYOND`` samples
#: above it.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    """True for a name of at most 64 ``[A-Za-z0-9_.-]`` characters that
    starts with a letter or digit."""
    return isinstance(name, str) and _NAME_RE.fullmatch(name) is not None


def check_metric_name(name: str) -> str:
    """Return ``name`` unchanged, or raise ``ValueError``."""
    if not valid_metric_name(name):
        raise ValueError(f"invalid metric name {name!r}: use at most 64 "
                         f"of [A-Za-z0-9_.-], starting with a letter or "
                         f"digit")
    return name


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified
    Lentz's method)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def percentile(values, pct: float) -> float:
    """Harrell-Davis estimate of the ``pct``-th percentile.

    A beta-weighted average of every order statistic.  Latencies here
    arrive quantized to the client's 50 ms poll: a plain sample median
    jumps a whole step whenever two steps straddle it, while this
    estimate moves smoothly with the share of samples on each step.
    """
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile {pct} outside [0, 100]")
    n = len(data)
    if n == 1 or pct == 0.0:
        return float(data[0])
    if pct == 100.0:
        return float(data[-1])
    a = pct / 100.0 * (n + 1)
    b = (1.0 - pct / 100.0) * (n + 1)
    total = 0.0
    below = 0.0
    for i, value in enumerate(data, start=1):
        upto = betainc(a, b, i / n)
        total += (upto - below) * value
        below = upto
    return total


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(count: int) -> float | None:
    """The highest ladder percentile with at least ten samples beyond it.

    ``count * (1 - p/100)`` samples lie above the p-th percentile; None
    when even the median has fewer than ten above it (fewer than 20
    samples).
    """
    best = None
    for pct in TAIL_LADDER:
        # the small epsilon absorbs float error in e.g. 100 * 0.1
        if count * (100.0 - pct) / 100.0 + 1e-9 >= TAIL_MIN_BEYOND:
            best = pct
    return best


def summarize(values) -> dict:
    """Median, tail value, the tail's percentile and the sample count.

    With too few samples for any ladder percentile the tail falls back
    to the maximum and ``tail_pct`` reads 100.
    """
    data = list(values)
    if not data:
        raise ValueError("summary of an empty sample")
    pct = tail_percentile(len(data))
    if pct is None:
        tail, pct = float(max(data)), 100.0
    else:
        tail = percentile(data, pct)
    return {"p50": median(data), "tail": tail, "tail_pct": pct,
            "n": len(data)}
