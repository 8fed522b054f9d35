"""Reproducible random number generation helpers.

All stochastic components of the library (scene generation, the simulated
segmentation network, data splits, SMOTE, model initialisation) accept either
an integer seed, ``None`` or a :class:`numpy.random.Generator`.  The helpers
here normalise these inputs so every module follows the same convention and
experiments are exactly reproducible from a single seed.
"""

from __future__ import annotations

from typing import Iterable, List, Union

import numpy as np

# Public alias used in type hints across the code base.
RandomState = Union[None, int, np.random.Generator]


def as_rng(random_state: RandomState = None) -> np.random.Generator:
    """Normalise *random_state* into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    random_state:
        ``None`` for a fresh nondeterministic generator, an ``int`` seed for a
        deterministic generator, or an existing generator which is returned
        unchanged.

    Returns
    -------
    numpy.random.Generator
    """
    if random_state is None:
        return np.random.default_rng()  # repro: allow[det-rng] -- as_rng(None) is the documented OS-entropy seam
    if isinstance(random_state, np.random.Generator):
        return random_state
    if isinstance(random_state, (int, np.integer)):
        return np.random.default_rng(int(random_state))
    raise TypeError(
        "random_state must be None, an int seed or a numpy Generator, "
        f"got {type(random_state).__name__}"
    )


def shuffled_indices(n: int, random_state: RandomState = None) -> np.ndarray:
    """Return a random permutation of ``arange(n)``."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    rng = as_rng(random_state)
    return rng.permutation(n)


def split_indices(
    n: int,
    fractions: Iterable[float],
    random_state: RandomState = None,
) -> List[np.ndarray]:
    """Randomly split ``arange(n)`` into consecutive groups of given fractions.

    The fractions must sum to 1 (within numerical tolerance).  The last group
    absorbs rounding remainders so that every index is assigned exactly once.
    """
    fractions = list(fractions)
    if not fractions:
        raise ValueError("fractions must be non-empty")
    total = float(sum(fractions))
    if not np.isclose(total, 1.0, atol=1e-8):
        raise ValueError(f"fractions must sum to 1, got {total}")
    if any(f < 0 for f in fractions):
        raise ValueError("fractions must be non-negative")
    perm = shuffled_indices(n, random_state)
    counts = [int(round(f * n)) for f in fractions[:-1]]
    groups: List[np.ndarray] = []
    start = 0
    for count in counts:
        groups.append(perm[start : start + count])
        start += count
    groups.append(perm[start:])
    return groups
