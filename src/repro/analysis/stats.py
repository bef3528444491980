"""Small statistics helpers for multi-seed experiment summaries.

The paper reports means with 95 % confidence intervals over 30 runs;
:func:`confidence_interval_95` reproduces that (normal approximation,
which is what error bars over 30 runs amount to).  A mean over
finishers hides the peers that never finished; :func:`km_median`
counts them, as right-censored observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

#: two-sided 97.5 % normal quantile
_Z_975 = 1.959963984540054


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def stddev(values: Sequence[float]) -> float:
    """Sample standard deviation (n-1); 0.0 below two samples."""
    values = list(values)
    n = len(values)
    if n < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / (n - 1))


def confidence_interval_95(values: Sequence[float]) -> float:
    """Half-width of the 95 % CI of the mean."""
    values = list(values)
    n = len(values)
    if n < 2:
        return 0.0
    return _Z_975 * stddev(values) / math.sqrt(n)


@dataclass(frozen=True)
class Summary:
    """Mean ± 95 % CI over runs."""

    mean: float
    ci95: float
    n: int
    minimum: float
    maximum: float
    #: inputs dropped as missing (None or NaN), not counted in ``n``
    n_missing: int = 0

    def __str__(self) -> str:
        return f"{self.mean:.1f} ± {self.ci95:.1f} (n={self.n})"


def summarize(values: Sequence[Optional[float]]) -> Optional[Summary]:
    """Summary statistics over the values that are present, or None
    when none are.  ``None`` and NaN count as missing
    (:attr:`Summary.n_missing`)."""
    values = list(values)
    present = [v for v in values if v is not None and not math.isnan(v)]
    if not present:
        return None
    return Summary(mean=mean(present),
                   ci95=confidence_interval_95(present),
                   n=len(present),
                   minimum=min(present),
                   maximum=max(present),
                   n_missing=len(values) - len(present))


def km_median(finish_times: Sequence[Optional[float]], stop_time: float,
              start_times: Optional[Sequence[float]] = None
              ) -> Optional[float]:
    """Kaplan–Meier median time to finish.

    ``finish_times`` holds one entry per peer, ``None`` for a peer that
    never finished; such a peer is right-censored at ``stop_time``.
    Times run from each peer's start (``start_times``, 0 for all by
    default), so a peer that joined at 100 s and was still unfinished
    at a 1000 s stop counts as "at least 900 s".  Returns the first
    finish at which the survival curve reaches ½, or None when it never
    does.  With nobody censored this is the ⌈n/2⌉-th finish.
    """
    if start_times is None:
        start_times = [0.0] * len(finish_times)
    # A finish and a censoring at the same time: the finish counts
    # first (the censored peer was still at risk).
    observed = sorted(
        (((stop_time if t is None else t) - start, t is not None)
         for t, start in zip(finish_times, start_times)),
        key=lambda obs: (obs[0], not obs[1]))
    at_risk = len(observed)
    survival = 1.0
    for elapsed, finished in observed:
        if finished:
            survival *= 1.0 - 1.0 / at_risk
            # The float product can land a hair above an exact ½.
            if survival <= 0.5 + 1e-12:
                return elapsed
        at_risk -= 1
    return None


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("empty input")
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return xs[lo]
    frac = pos - lo
    return xs[lo] * (1 - frac) + xs[hi] * frac
