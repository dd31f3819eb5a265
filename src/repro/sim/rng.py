"""Seeded randomness helpers.

Every stochastic element of the reproduction (the synthetic app corpus,
workload jitter, AnTuTu score noise) draws from a :class:`SeededRng`
created from an explicit seed so that experiments are reproducible
run-to-run and figure outputs are stable.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(seed: int, label: str) -> int:
    """Stable child seed for ``(seed, label)``.

    Uses SHA-256 rather than :func:`hash` so the derivation does not
    depend on ``PYTHONHASHSEED`` — forked streams must be identical
    across processes for cross-process fuzz replay and parallel
    experiments to be deterministic.
    """
    digest = hashlib.sha256(f"{int(seed)}\x1f{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFF


class SeededRng:
    """Thin wrapper over :class:`random.Random` with convenience draws."""

    def __init__(self, seed: int) -> None:
        self._seed = int(seed)
        self._random = random.Random(self._seed)

    @property
    def seed(self) -> int:
        """The seed this generator was created with."""
        return self._seed

    def fork(self, label: str) -> "SeededRng":
        """Derive an independent child stream keyed by ``label``.

        Forking keeps unrelated consumers from perturbing each other's
        streams when one of them changes how many draws it makes.  The
        child seed is a stable digest of ``(seed, label)``, so forks are
        reproducible across processes and interpreter restarts.
        """
        return SeededRng(derive_seed(self._seed, label))

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform int in [low, high] inclusive."""
        return self._random.randint(low, high)

    def bernoulli(self, probability: float) -> bool:
        """True with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability {probability!r} outside [0, 1]")
        return self._random.random() < probability

    def gauss(self, mean: float, stddev: float) -> float:
        """Normal draw."""
        return self._random.gauss(mean, stddev)

    def choice(self, items: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        return self._random.choice(items)

    def sample(self, items: Sequence[T], count: int) -> List[T]:
        """Sample ``count`` distinct items."""
        return self._random.sample(list(items), count)

    def shuffle(self, items: List[T]) -> None:
        """In-place shuffle."""
        self._random.shuffle(items)

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Choice weighted by ``weights`` (need not be normalised)."""
        return self._random.choices(list(items), weights=list(weights), k=1)[0]

    def cumulative_choice(
        self, items: Sequence[T], cum_weights: Sequence[float]
    ) -> T:
        """Choice by precomputed cumulative weights.

        Draws exactly as :meth:`weighted_choice` does with the weights
        ``cum_weights`` accumulates (same RNG stream, same pick), without
        re-accumulating them on every call.
        """
        return self._random.choices(items, cum_weights=cum_weights, k=1)[0]
