"""Order statistics the benchmark reports.

Every timing is reported as a median plus a *tail*: the highest
percentile that still has at least :data:`TAIL_BEYOND` samples strictly
beyond it.  With ``n`` sorted samples that is the ``n - TAIL_BEYOND``-th
smallest, i.e. percentile ``100 * (n - TAIL_BEYOND) / n``; the
percentile and the sample count travel with the value, because the same
name means a different percentile at a different sample count.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: float  # 0..100
    count: int  # samples in the distribution
    beyond: int  # samples strictly above the reported rank

    def describe(self) -> str:
        return f"p{self.percentile:.1f} of n={self.count}, {self.beyond} beyond"


def p50(samples: Sequence[float]) -> float:
    """The high median (the larger middle sample for even counts).

    Always an observed sample.  Where a run mixes a light and a heavy
    group of equal size (warm-engine), the middle falls between them:
    the high median then reads the fastest heavy sample, which host
    noise disturbs far less than the slowest light one.  0.0 when empty.
    """
    return float(statistics.median_high(samples)) if samples else 0.0


def p50_by_pair(samples: Sequence[float], pairs: Sequence[str]) -> float:
    """Geometric mean over pairs of each pair's median; 0.0 when empty.

    For a fixed mix of light and heavy pairs, where the plain median
    falls between the groups and jumps from one to the other as host
    noise or input seeds reorder the requests near the middle.
    """
    by_pair: Dict[str, List[float]] = {}
    for sample, pair in zip(samples, pairs):
        by_pair.setdefault(pair, []).append(sample)
    if not by_pair:
        return 0.0
    return statistics.geometric_mean(statistics.median(v) for v in by_pair.values())


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """Nearest-rank quantile, ``q`` in [0, 1]; 0.0 when empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(max(math.ceil(q * len(ordered)), 1), len(ordered))
    return float(ordered[rank - 1])


def tail(samples: Sequence[float]) -> Optional[Tail]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it.

    None when there are too few samples for any percentile to qualify.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(samples)
    rank = n - TAIL_BEYOND  # 1-based nearest rank
    return Tail(
        value=float(ordered[rank - 1]),
        percentile=100.0 * rank / n,
        count=n,
        beyond=n - rank,
    )
