"""Helpers shared by the workloads: operation accounting, statistics, seeds."""

from __future__ import annotations

import random
import statistics
import sys
from collections import Counter

import numpy as np


class Operations:
    """Operations attempted and failed, per kind (step, evaluation, route)."""

    def __init__(self):
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()

    def record(self, kind: str, ok: bool) -> None:
        self.attempted[kind] += 1
        if not ok:
            self.failed[kind] += 1

    def report(self, workload: str) -> None:
        """Print one accounting line per operation kind to stdout."""
        for kind in sorted(self.attempted):
            print(
                f"ops {workload}: {kind} attempted={self.attempted[kind]} "
                f"failed={self.failed[kind]}"
            )

    def totals(self) -> tuple[int, int]:
        return sum(self.attempted.values()), sum(self.failed.values())


class Checks:
    """Output checks: each failed check is reported on stderr."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            if len(self.failures) < 20:
                print(f"CHECK FAILED: {message}", file=sys.stderr)
            self.failures.append(message)

    @property
    def ok(self) -> bool:
        return not self.failures


class TokenIndex:
    """Rows of a text split holding each token, built from the raw tokens.

    The output checks use it to evaluate keyword LFs apart from the
    program's own label matrices.
    """

    def __init__(self, dataset):
        rows: dict[str, list[int]] = {}
        for row, tokens in enumerate(dataset.token_sets):
            for token in tokens:
                rows.setdefault(token, []).append(row)
        self.n_rows = len(dataset)
        self._rows = {token: np.array(ids, dtype=int) for token, ids in rows.items()}

    def fires(self, keyword: str) -> np.ndarray:
        """Mask of the rows whose tokens contain *keyword*."""
        mask = np.zeros(self.n_rows, dtype=bool)
        mask[self._rows.get(keyword, np.empty(0, dtype=int))] = True
        return mask


def p50(samples: list[float]) -> float:
    return statistics.median(samples)


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[-1]


def derived_seeds(workload: str, seed: int, count: int) -> list[int]:
    """*count* input seeds derived from the workload seed (same seed, same list)."""
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(2**31 - 1) for _ in range(count)]


def rounds_for(seconds: float, round_seconds: float) -> int:
    """Whole rounds that fill *seconds* at the reference round duration.

    The count depends on ``--seconds`` only, never on how fast this machine
    runs, so every run of a workload attempts the same operations.
    """
    return max(1, round(seconds / round_seconds))
