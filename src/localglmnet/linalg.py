"""Deterministic RNG streams and multivariate normal sampling.

Randomness always flows through :func:`rng_stream`, which derives an
independent, reproducible generator from a 64-bit seed and a stream
label, so a single run seed can feed data generation, splitting,
initialization, shuffling and subsampling without the streams
interfering.
"""

import numpy as np

from .errors import NumericError

__all__ = ["rng_stream", "sample_mvn"]


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


def sample_mvn(
    n: int,
    mean: np.ndarray,
    sigma: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw n rows from a multivariate normal with the given mean and covariance.

    Sampling is ``mean + Z @ L.T`` with Z standard normal and L the
    Cholesky factor of sigma, so the draw is deterministic given the
    generator state and fails loudly on non-positive-definite sigma.

    Raises:
        ValueError: if sigma is not square or not symmetric (the LAPACK
            factorization would silently read only its lower triangle).
        NumericError: if sigma is not positive definite, naming the failing pivot.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 samples, got {n}")
    mean = np.asarray(mean, dtype=float)
    a = np.asarray(sigma, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(a).max())):
        raise ValueError("matrix is not symmetric")
    try:
        L = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NumericError(f"sigma is not positive definite (pivot {_failed_pivot(a)})") from None
    z = rng.standard_normal((n, mean.shape[0]))
    return mean + z @ L.T


def _failed_pivot(a: np.ndarray) -> int:
    """Index of the first leading block of a that has no Cholesky factor."""
    for j in range(len(a)):
        try:
            np.linalg.cholesky(a[: j + 1, : j + 1])
        except np.linalg.LinAlgError:
            return j
