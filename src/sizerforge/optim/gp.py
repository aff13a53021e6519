"""Gaussian process surrogate on min-max normalized index coordinates.

Matern nu=2.5 kernel with a fixed length scale; no hyperparameter
optimization, which keeps fits deterministic and cheap at the batch
sizes this package uses. The kernel amplitude tracks the observation
variance and the mean function is the observation mean, so posterior
interpolation error at an observed point stays at the jitter scale even
for wide-spread objectives.

Cholesky failures escalate the diagonal jitter tenfold up to 1e-2 before
giving up with SingularKernel.

Prediction is split in two: ``correlation`` gives the unscaled Matern
correlation between two point sets, and ``GaussianProcess.posterior``
turns the correlations of query points to the training points into the
posterior mean and standard deviation. Because the correlation does not
depend on the fitted amplitude or targets, a caller that refits on a
growing training set (the Bayesian proposer's constant-liar loop) can
keep one correlation buffer and append a column per new training point
instead of recomputing every distance. ``predict`` is ``posterior`` of
the freshly computed correlation.

``posterior`` takes the variance from one triangular solve on the right
side, ``w = k_star L^-T`` with L the Cholesky factor of the fit, as the
row sums of ``w * w``; it never forms the n x N solve ``K^-1 k_star^T``.
A column-major correlation block is solved in place of its scaled copy.

``acquisition`` takes the standard normal CDF from ``scipy.special.ndtr``
and writes the PDF out; both are what ``scipy.stats.norm`` computes at
loc 0 and scale 1, bit for bit, without importing ``scipy.stats``.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.blas import dtrsm
from scipy.spatial.distance import cdist
from scipy.special import ndtr

from ..errors import SingularKernel

SQRT5 = math.sqrt(5.0)

DEFAULT_LENGTH_SCALE = 1.0
BASE_JITTER = 1e-6
MAX_JITTER = 1e-2

ACQUISITIONS = ("EI", "UCB", "LCB", "PI")

SQRT_2PI = math.sqrt(2 * math.pi)


def matern25(dists: np.ndarray, length_scale: float) -> np.ndarray:
    r = dists / length_scale
    return (1.0 + SQRT5 * r + 5.0 * r * r / 3.0) * np.exp(-SQRT5 * r)


def correlation(a: np.ndarray, b: np.ndarray, length_scale: float) -> np.ndarray:
    """Unscaled Matern correlation between the rows of a and of b."""
    return matern25(cdist(a, b), length_scale)


class GaussianProcess:
    """Fixed-kernel GP regressor for maximization surrogates."""

    def __init__(self, length_scale: float = DEFAULT_LENGTH_SCALE,
                 jitter: float = BASE_JITTER):
        self.length_scale = length_scale
        self.jitter = jitter
        self._x: Optional[np.ndarray] = None
        self._y_mean = 0.0
        self._amplitude = 1.0
        self._alpha: Optional[np.ndarray] = None
        self._factor = None
        self.fitted_jitter = jitter

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        self._x = x
        self._y_mean = float(np.mean(y))
        variance = float(np.var(y))
        self._amplitude = variance if variance > 0 else 1.0
        centered = y - self._y_mean

        k = self._amplitude * correlation(x, x, self.length_scale)
        jitter = self.jitter
        while True:
            try:
                self._factor = cho_factor(k + jitter * np.eye(len(x)), lower=True)
                break
            except LinAlgError:
                jitter = jitter * 10.0 if jitter > 0 else BASE_JITTER
                if jitter > MAX_JITTER:
                    raise SingularKernel(
                        f"kernel matrix not positive definite at jitter {jitter:.0e}"
                    ) from None
        self.fitted_jitter = jitter
        self._alpha = cho_solve(self._factor, centered)
        return self

    def predict(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at each row of x."""
        x = np.asarray(x, dtype=float)
        return self.posterior(correlation(x, self._x, self.length_scale))

    def posterior(self, corr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation from unscaled correlations.

        ``corr[i, j]`` is ``correlation`` between query point i and the
        j-th training point of the last fit, in fit order; a non-finite
        entry raises ValueError.
        """
        k_star = self._amplitude * np.asarray_chkfinite(corr)
        mu = self._y_mean + k_star @ self._alpha
        # w = k_star L^-T; dtrsm reads only the lower triangle (cho_factor
        # leaves the upper one unzeroed), and solves a column-major k_star
        # in place
        w = dtrsm(1.0, self._factor[0], k_star, side=1, lower=1, trans_a=1,
                  overwrite_b=1)
        # the prior variance is the amplitude: matern25(0) == 1.0 exactly
        var = self._amplitude - np.einsum("ij,ij->i", w, w)
        sigma = np.sqrt(np.maximum(var, 0.0))
        return mu, sigma


def acquisition(name: str, mu: np.ndarray, sigma: np.ndarray,
                best: float, weight: float) -> np.ndarray:
    """Score candidates for maximization.

    EI and PI use ``weight`` as the improvement margin xi; UCB uses it
    as the confidence multiplier beta. LCB is the exploration variant:
    it rewards uncertainty over mean value (beta * sigma - mu).
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if name == "UCB":
        return mu + weight * sigma
    if name == "LCB":
        return weight * sigma - mu
    safe = np.where(sigma > 0, sigma, 1.0)
    z = (mu - best - weight) / safe
    if name == "PI":
        out = ndtr(z)
        return np.where(sigma > 0, out, (mu - best - weight > 0).astype(float))
    if name == "EI":
        pdf = np.exp(-z**2 / 2.0) / SQRT_2PI
        out = (mu - best - weight) * ndtr(z) + sigma * pdf
        out = np.maximum(out, 0.0)
        return np.where(sigma > 0, out, np.maximum(mu - best - weight, 0.0))
    raise ValueError(f"unknown acquisition {name!r}")
