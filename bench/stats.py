"""Summary statistics and the attempted/failed tally of the benchmark."""

from __future__ import annotations

import math
import statistics


def median(values) -> float:
    """Median, or NaN for no values (reported as a harness problem)."""
    return float(statistics.median(values)) if values else math.nan


def tail(values):
    """Highest percentile that has at least ten samples beyond it.

    Percentiles use the nearest-rank rule (the p-th percentile of n sorted
    samples is the one at rank ceil(p * n / 100)), so the answer is the
    sample at rank n - 10, the percentile is 100 * (n - 10) / n and exactly
    ten samples lie beyond it.  Returns (value, percentile, beyond), or
    None when there are fewer than eleven samples.
    """
    n = len(values)
    if n < 11:
        return None
    rank = n - 10
    return float(sorted(values)[rank - 1]), 100.0 * rank / n, n - rank


class Tally:
    """Operations attempted and failed; a failed check never aborts a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.maxima: dict = {}

    def record(self, what: str, problems) -> bool:
        """Count one operation; it failed when any check reported a problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")
        return not problems

    def note_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
