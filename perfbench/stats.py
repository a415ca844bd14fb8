"""Order statistics for op latencies.

Percentiles use the nearest-rank rule, so every reported value is one that
was measured, and the number of samples beyond it is exact.
"""

from __future__ import annotations

import math

# Percentiles tried for the tail, highest first. The tail is the first one
# with at least TAIL_MIN_BEYOND samples above it; below p75 a run is too
# short to say anything about its tail, and the tail is omitted.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


def nearest_rank(values, p: float) -> tuple[float, int]:
    """The p-th percentile of ``values`` and the number of samples above its
    rank: rank k = ceil(p/100 * n), value = sorted(values)[k - 1]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    # round first so that 99.9% of 10000 is rank 9990, not 9991
    k = max(1, math.ceil(round(p / 100.0 * len(xs), 9)))
    return xs[k - 1], len(xs) - k


def tail(values) -> dict | None:
    """Highest percentile of TAIL_LADDER with >= TAIL_MIN_BEYOND samples
    beyond it, as {"percentile", "value", "beyond", "samples"}; None when
    the run has too few samples for any of them."""
    for p in TAIL_LADDER:
        value, beyond = nearest_rank(values, p)
        if beyond >= TAIL_MIN_BEYOND:
            return {"percentile": p, "value": value, "beyond": beyond,
                    "samples": len(values)}
    return None
