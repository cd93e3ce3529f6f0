"""Statistics of the repository benchmark.

Percentiles use the nearest-rank definition and always travel with their
sample count. A tail percentile is only trusted when at least ten samples lie
beyond it; `supported_tail` names the highest such percentile. Open-loop
delays are measured from each request's due time, so a stall also charges
the requests it delayed.
"""

import math
from fractions import Fraction

# Percentiles `supported_tail` chooses from, highest first.
TAIL_LADDER = (99.99, 99.9, 99.5, 99, 98, 95, 90, 75, 50)
MIN_BEYOND = 10


def rank(n, p):
    """1-based nearest rank of the p-th percentile (0 < p <= 100) of n samples."""
    if n < 1 or not 0 < p <= 100:
        raise ValueError("need n >= 1 and 0 < p <= 100")
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def beyond(n, p):
    """Samples strictly above the p-th percentile's rank."""
    return n - rank(n, p)


def percentile(values, p):
    """Nearest-rank p-th percentile of `values`, with its sample count."""
    xs = sorted(values)
    return {"value": xs[rank(len(xs), p) - 1], "count": len(xs),
            "beyond": beyond(len(xs), p)}


def supported_tail(n, min_beyond=MIN_BEYOND):
    """Highest ladder percentile with at least `min_beyond` samples beyond it,
    or None when even the median is not supported."""
    for p in TAIL_LADDER:
        if n >= 1 and beyond(n, p) >= min_beyond:
            return p
    return None


def open_loop(rate, sent_us, visible_us):
    """Delays of an open-loop schedule whose request i was due at i / rate.

    `sent_us` and `visible_us` are microseconds since the schedule start;
    a visible time below zero marks a request that never completed, which
    counts as infinitely late. Returns (visibility_us, lateness_us): time
    from due to visible, and how late the generator sent each request."""
    if len(sent_us) != len(visible_us):
        raise ValueError("sent and visible times differ in length")
    period_us = 1e6 / rate
    visibility, lateness = [], []
    for i, (sent, visible) in enumerate(zip(sent_us, visible_us)):
        due = i * period_us
        lateness.append(sent - due)
        visibility.append(visible - due if visible >= 0 else math.inf)
    return visibility, lateness


def windowed_rates(times_us, per_window):
    """Events per second over consecutive runs of `per_window` events, given
    event times in microseconds: window k spans from event k*per_window to
    event (k+1)*per_window. The median of these rates is steadier than one
    overall rate, since a stall moves only the windows it falls in, and
    windows sized in events do not quantize when events come in groups."""
    times = sorted(times_us)
    if per_window < 1 or len(times) <= per_window:
        raise ValueError("need more than one window's worth of events")
    rates = []
    for i in range(0, len(times) - per_window, per_window):
        span = times[i + per_window] - times[i]
        rates.append(per_window * 1e6 / span if span > 0 else math.inf)
    return rates
