"""Order statistics for the benchmark's reports.

Timings are reported as a median plus the highest requested percentile
that still has at least :data:`MIN_BEYOND` samples beyond it; a tail
percentile read off fewer samples is one or two outliers, not a
distribution.

Medians are Harrell-Davis estimates: a weighted mean of every order
statistic, with Beta weights centred on the middle rank.  Among a few
samples of very different sizes (attack-eval's 14 jobs, three passes),
the sample median is one or two of them, swapped between neighbours by
host jitter; the Harrell-Davis median reads the middle ranks together
and moves less from run to run.  Tail percentiles stay nearest-rank, so
the samples beyond them are counted exactly.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Optional, Sequence, Tuple

#: Samples that must lie strictly above a reported percentile.
MIN_BEYOND = 10


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ``values``."""
    if not values:
        raise ValueError("quantile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def supported_quantile(n: int, q: float) -> float:
    """The highest quantile ``<= q`` with :data:`MIN_BEYOND` samples
    beyond it among ``n``; ``0.5`` is the floor (a median is always
    reported, with its sample count)."""
    if n <= 0:
        return 0.5
    return max(0.5, min(q, (n - MIN_BEYOND) / n))


def tail(values: Sequence[float], q: float) -> Tuple[Optional[float], float, int]:
    """``(value, quantile used, n)`` for a requested tail quantile.

    The quantile is lowered to what the sample count supports (see
    :func:`supported_quantile`); callers print the quantile actually
    used next to the value.  ``value`` is ``None`` without samples.
    """
    n = len(values)
    used = supported_quantile(n, q)
    if not n:
        return None, used, n
    return (median(values) if used == 0.5 else quantile(values, used)), used, n


def median(values: Sequence[float]) -> float:
    """Harrell-Davis median of ``values``."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    return sum(w * v for w, v in zip(_hd_weights(len(ordered)), ordered))


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values)


def _hd_weights(n: int) -> List[float]:
    """Harrell-Davis weights of the ``n`` order statistics for the
    median: ``I(i/n) - I((i-1)/n)`` for the regularized incomplete Beta
    function ``I`` with ``a = b = (n + 1) / 2``."""
    a = (n + 1) / 2
    cdf = [_beta_cdf(i / n, a) for i in range(n + 1)]
    return [hi - lo for lo, hi in zip(cdf, cdf[1:])]


def _beta_cdf(x: float, a: float) -> float:
    """Regularized incomplete Beta ``I_x(a, a)``.

    Symmetric in ``a`` and ``b``, so the continued fraction is only ever
    evaluated on the half ``x <= 0.5``, where it converges; beyond ten
    standard deviations of the median the value is 0 or 1 to double
    precision.
    """
    if x > 0.5:
        return 1.0 - _beta_cdf(1.0 - x, a)
    if x <= 0.0 or 0.5 - x > 10.0 * math.sqrt(0.25 / (2 * a + 1)):
        return 0.0
    log_front = (math.lgamma(2 * a) - 2 * math.lgamma(a)
                 + a * math.log(x) + a * math.log(1.0 - x))
    return math.exp(log_front) * _beta_fraction(x, a) / a


def _beta_fraction(x: float, a: float) -> float:
    """Continued fraction of ``I_x(a, a)`` (modified Lentz), valid for
    ``x <= 0.5``."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - 2 * a * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for num in (m * (a - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (2 * a + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= c * d
        if abs(c * d - 1.0) < 1e-15:
            return h
    raise ArithmeticError("incomplete Beta fraction did not converge")
