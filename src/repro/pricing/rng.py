"""Random number generation for the Monte-Carlo pricers.

Premia ships several random number generators (pseudo-random and
quasi-random/low-discrepancy) that are selected as method parameters.  This
module provides the equivalent abstraction on top of NumPy:

* :class:`PseudoRandomGenerator` -- wraps :class:`numpy.random.Generator`
  (PCG64) and offers Gaussian/uniform sampling with reproducible seeding and
  independent sub-streams (one per job/path-block, used by the parallel
  Monte-Carlo pricers).
* :class:`SobolGenerator` -- quasi-Monte-Carlo sampling using
  :class:`scipy.stats.qmc.Sobol` with inverse-CDF Gaussian transformation.

Both expose the same small interface (:meth:`normals`, :meth:`uniforms`,
:meth:`spawn`) so a pricing method can swap generators without changing its
sampling code.
"""

from __future__ import annotations

import abc
import math

import numpy as np
from scipy import stats
from scipy.stats import qmc

__all__ = [
    "RandomGenerator",
    "PseudoRandomGenerator",
    "SobolGenerator",
    "AntitheticGenerator",
    "cholesky_factor",
    "create_generator",
]


def cholesky_factor(correlation: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a correlation matrix, with jitter fallback.

    The matrix must be symmetric positive semi-definite; semi-definite
    matrices (e.g. perfectly correlated assets) get a tiny diagonal jitter
    before factorisation.  The multi-asset sampler correlates its draws with
    this factor.
    """
    correlation = np.asarray(correlation, dtype=float)
    d = correlation.shape[0]
    if correlation.shape != (d, d):
        raise ValueError("correlation matrix must be square")
    try:
        return np.linalg.cholesky(correlation)
    except np.linalg.LinAlgError:
        # semi-definite fallback: jitter the diagonal very slightly
        jitter = 1e-12 * np.eye(d)
        return np.linalg.cholesky(correlation + jitter)


class RandomGenerator(abc.ABC):
    """Common interface for Gaussian/uniform sample generation."""

    #: human readable generator family name
    name: str = "abstract"

    @abc.abstractmethod
    def normals(self, shape: tuple[int, ...]) -> np.ndarray:
        """Return an array of i.i.d. standard normal samples of ``shape``."""

    @abc.abstractmethod
    def uniforms(self, shape: tuple[int, ...]) -> np.ndarray:
        """Return an array of i.i.d. U(0, 1) samples of ``shape``."""

    @abc.abstractmethod
    def spawn(self, n: int) -> list["RandomGenerator"]:
        """Return ``n`` statistically independent child generators.

        Used to give each worker of a parallel Monte-Carlo run its own
        stream so that results do not depend on the number of workers.
        """


class PseudoRandomGenerator(RandomGenerator):
    """Pseudo-random generator backed by NumPy's PCG64 bit generator.

    Parameters
    ----------
    seed:
        Integer seed or :class:`numpy.random.SeedSequence`.  Two generators
        built with the same seed produce identical streams, which is what the
        non-regression workload (Table I of the paper) relies on.
    """

    name = "pcg64"

    def __init__(self, seed: int | np.random.SeedSequence | None = 0):
        if isinstance(seed, np.random.SeedSequence):
            self._seed_seq = seed
        else:
            self._seed_seq = np.random.SeedSequence(seed)
        self._rng = np.random.Generator(np.random.PCG64(self._seed_seq))

    def normals(self, shape: tuple[int, ...]) -> np.ndarray:
        return self._rng.standard_normal(shape)

    def uniforms(self, shape: tuple[int, ...]) -> np.ndarray:
        return self._rng.random(shape)

    def spawn(self, n: int) -> list["PseudoRandomGenerator"]:
        return [PseudoRandomGenerator(s) for s in self._seed_seq.spawn(n)]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"PseudoRandomGenerator(seed_entropy={self._seed_seq.entropy})"


class SobolGenerator(RandomGenerator):
    """Quasi-Monte-Carlo generator based on scrambled Sobol sequences.

    The generator is dimensioned at construction time: every call to
    :meth:`normals` or :meth:`uniforms` with shape ``(n, d)`` must use the
    same ``d`` (the problem dimension, e.g. ``n_steps * n_assets``).  One
    dimensional requests ``(n,)`` are accepted when ``dimension == 1``.
    """

    name = "sobol"

    def __init__(self, dimension: int, seed: int = 0, scramble: bool = True):
        if dimension < 1:
            raise ValueError("Sobol dimension must be >= 1")
        self.dimension = int(dimension)
        self.seed = int(seed)
        self.scramble = bool(scramble)
        self._sampler = qmc.Sobol(d=self.dimension, scramble=scramble, seed=seed)

    def _draw(self, n: int) -> np.ndarray:
        # qmc.Sobol warns when n is not a power of two; the statistical
        # properties are still fine for pricing, so silence by sampling the
        # next power of two and truncating.
        m = max(1, int(math.ceil(math.log2(max(n, 1)))))
        samples = self._sampler.random(2**m)[:n]
        # guard against exact 0/1 which break the inverse CDF transform
        eps = np.finfo(float).tiny
        return np.clip(samples, eps, 1.0 - 1e-16)

    def uniforms(self, shape: tuple[int, ...]) -> np.ndarray:
        n, d = self._normalise_shape(shape)
        u = self._draw(n)[:, :d]
        return u.reshape(shape)

    def normals(self, shape: tuple[int, ...]) -> np.ndarray:
        u = self.uniforms(shape)
        return stats.norm.ppf(u)

    def spawn(self, n: int) -> list["SobolGenerator"]:
        return [
            SobolGenerator(self.dimension, seed=self.seed + 7919 * (i + 1), scramble=self.scramble)
            for i in range(n)
        ]

    def _normalise_shape(self, shape: tuple[int, ...]) -> tuple[int, int]:
        if len(shape) == 1:
            if self.dimension != 1:
                raise ValueError(
                    f"1-d request incompatible with Sobol dimension {self.dimension}"
                )
            return shape[0], 1
        if len(shape) == 2:
            if shape[1] != self.dimension:
                raise ValueError(
                    f"requested dimension {shape[1]} != Sobol dimension {self.dimension}"
                )
            return shape[0], shape[1]
        raise ValueError("SobolGenerator supports 1-d or 2-d sample shapes only")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"SobolGenerator(dimension={self.dimension}, seed={self.seed})"


class AntitheticGenerator(RandomGenerator):
    """Antithetic wrapper: returns mirrored pairs of samples.

    For a request of ``n`` samples (``n`` even), the first ``n/2`` come from
    the wrapped generator and the second half are their negatives (normals)
    or reflections ``1 - u`` (uniforms).  Wrapping the generator keeps the
    antithetic coupling model-agnostic: any model that consumes one row of
    random numbers per path automatically becomes antithetic.
    """

    name = "antithetic"

    def __init__(self, base: RandomGenerator):
        self.base = base

    @staticmethod
    def _check_even(n: int) -> None:
        if n % 2 != 0:
            raise ValueError("antithetic sampling requires an even number of samples")

    def normals(self, shape: tuple[int, ...]) -> np.ndarray:
        n = shape[0]
        self._check_even(n)
        half = self.base.normals((n // 2,) + tuple(shape[1:]))
        return np.concatenate([half, -half], axis=0)

    def uniforms(self, shape: tuple[int, ...]) -> np.ndarray:
        n = shape[0]
        self._check_even(n)
        half = self.base.uniforms((n // 2,) + tuple(shape[1:]))
        return np.concatenate([half, 1.0 - half], axis=0)

    def spawn(self, n: int) -> list["AntitheticGenerator"]:
        return [AntitheticGenerator(g) for g in self.base.spawn(n)]


def create_generator(
    kind: str = "pcg64", seed: int = 0, dimension: int = 1
) -> RandomGenerator:
    """Factory used by pricing methods to build a generator from parameters.

    Parameters
    ----------
    kind:
        ``"pcg64"`` (default pseudo-random) or ``"sobol"`` (quasi-random).
    seed:
        Reproducibility seed.
    dimension:
        Problem dimension, only used for Sobol sequences.
    """
    kind = kind.lower()
    if kind in ("pcg64", "pseudo", "mt", "random"):
        return PseudoRandomGenerator(seed)
    if kind in ("sobol", "qmc", "quasi"):
        return SobolGenerator(dimension=dimension, seed=seed)
    raise ValueError(f"unknown random generator kind: {kind!r}")
