"""Deterministic RNG streams.

Randomness always flows through :func:`rng_stream`, which derives an
independent, reproducible generator from a 64-bit seed and a stream
label, so a single run seed can feed data generation, splitting,
initialization, shuffling and subsampling without the streams
interfering.
"""

import numpy as np

__all__ = ["rng_stream"]


def rng_stream(seed: int, label: str = "") -> np.random.Generator:
    """Return a deterministic generator for (seed, label).

    Uses the counter-based Philox bit generator seeded through a
    ``SeedSequence`` over the seed and the label bytes: equal inputs give
    bitwise-equal streams, distinct labels give independent streams.
    Normal variates drawn from the returned generator use the ziggurat
    method (numpy's ``standard_normal``).
    """
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF, *label.encode("utf-8")]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
