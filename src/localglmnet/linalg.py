"""Deterministic RNG streams and the row-block rule.

Randomness always flows through :func:`rng_stream`, which derives an
independent, reproducible generator from a 64-bit seed and a stream
label, so a single run seed can feed data generation, splitting,
initialization, shuffling and subsampling without the streams
interfering. Passes over all rows (model evaluation, the GLM baseline)
walk the rows in the blocks of :func:`_row_blocks`.
"""

import numpy as np

__all__ = ["rng_stream"]

# Rows per block of the passes that walk all rows without training on them
# (attentions, input Jacobians, evaluation loss, the GLM baseline): their
# temporaries scale with the block, not with n.
EVAL_BLOCK_ROWS = 4096


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


def _row_blocks(n: int) -> list:
    """Slices of EVAL_BLOCK_ROWS consecutive rows covering n rows.

    A lone last row joins the block before it: numpy multiplies a single row
    by a vector-matrix product, which rounds differently from the matrix
    product that the row gets in one whole-array pass.
    """
    stops = [*range(EVAL_BLOCK_ROWS, n - 1, EVAL_BLOCK_ROWS), n]
    return [slice(start, stop) for start, stop in zip([0, *stops[:-1]], stops)]
