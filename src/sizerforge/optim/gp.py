"""Gaussian process surrogate on min-max normalized index coordinates.

Matern nu=2.5 kernel with a fixed length scale; no hyperparameter
optimization, which keeps fits deterministic and cheap at the batch
sizes this package uses. The kernel amplitude tracks the observation
variance and the mean function is the observation mean, so posterior
interpolation error at an observed point stays at the jitter scale even
for wide-spread objectives.

The jitter is relative to the amplitude: the kernel matrix is
``amp * (R + j I)``, with R the unscaled correlation of the training
points. ``fit`` factors ``R + j I`` alone, so its Cholesky factor L
depends on the training points only, not on the targets or on the
amplitude they set. A Cholesky failure escalates j tenfold up to 1e-2
before giving up with SingularKernel.

Everything is computed in whitened form. With ``w = r_star L^-T``, the
correlations of the query points to the training points solved on the
right side by L (one ``dtrsm``), the posterior is

    mean     = y_mean + w . L^-1 (y - y_mean)
    variance = amp * (1 - sum(w * w))

``fit`` keeps the whitened targets ``L^-1 y`` and ``L^-1 1``, so the
mean and the amplitude are read off the targets at no factoring cost.
``predict`` whitens the correlation block of its query points in place.

``Posterior`` keeps the whitened block of a fixed query set, such as the
Bayesian proposer's candidates, and adds one training point at a time
as a rank-one append instead of a refit. The new row of L is the
point's own row of w, ``l``, with the pivot ``d = sqrt(1 + j - l.l)``;
the new column of w is ``(r_new - w l) / d``. That is O(N n) per point
for N query points, where a refit is O(n^3 + N n^2). In exact
arithmetic ``d^2 >= j``, since R is positive semidefinite, and the
rounding error of ``d^2`` stays far below ``BASE_JITTER``. So a computed
``d^2`` below half of j, or of ``BASE_JITTER`` when j is smaller, is
taken as lost to rounding: the jitter escalates and the block is
factored again from scratch.

``acquisition`` takes the standard normal CDF from ``scipy.special.ndtr``
and writes the PDF out; both are what ``scipy.stats.norm`` computes at
loc 0 and scale 1, bit for bit, without importing ``scipy.stats``.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np
from scipy.linalg import LinAlgError, cho_factor
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


def matern25(dists: np.ndarray, length_scale: float,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """``(1 + sqrt5 r + 5 r^2 / 3) exp(-sqrt5 r)`` at ``r = dists / length_scale``.

    Written into ``out`` when given, which may be ``dists`` itself; the
    operations are those of the formula, in its order.
    """
    r = np.divide(dists, length_scale, out=out)
    decay = np.exp(-SQRT5 * r)
    square = 5.0 * r
    square *= r
    square /= 3.0
    r *= SQRT5
    r += 1.0
    r += square
    r *= decay
    return r


def correlation(a: np.ndarray, b: np.ndarray, length_scale: float,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """Unscaled Matern correlation between the rows of a and of b, written
    into ``out`` (C-contiguous, len(a) x len(b)) when given."""
    dists = cdist(a, b, out=out)
    return matern25(dists, length_scale, out=dists)


def _escalated(jitter: float) -> float:
    """The next jitter to try after a failed factorization."""
    jitter = jitter * 10.0 if jitter > 0 else BASE_JITTER
    if jitter > MAX_JITTER:
        raise SingularKernel(f"kernel matrix not positive definite at jitter {jitter:.0e}")
    return jitter


class GaussianProcess:
    """Fixed-kernel GP regressor for maximization surrogates."""

    def __init__(self, length_scale: float = DEFAULT_LENGTH_SCALE,
                 jitter: float = BASE_JITTER):
        self.length_scale = length_scale
        self.jitter = jitter
        self.fitted_jitter = jitter
        self.x: Optional[np.ndarray] = None
        self.y: Optional[np.ndarray] = None
        # L in the leading n x n block, and the rows of [L^-1 y, L^-1 1];
        # appends grow both
        self._chol: Optional[np.ndarray] = None
        self._white: Optional[np.ndarray] = None

    @property
    def factor(self) -> np.ndarray:
        """L, the lower Cholesky factor of ``R + j I`` over the training points."""
        n = len(self.y)
        return self._chol[:n, :n]

    def fit(self, x: np.ndarray, y: np.ndarray,
            jitter: Optional[float] = None) -> "GaussianProcess":
        """Factor the correlation of x, trying ``jitter`` first (default:
        the constructor's) and escalating it on failure."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = correlation(x, x, self.length_scale)
        jitter = self.jitter if jitter is None else jitter
        while True:
            try:
                chol, _ = cho_factor(r + jitter * np.eye(len(x)), lower=True)
                break
            except LinAlgError:
                jitter = _escalated(jitter)
        self.fitted_jitter = jitter
        self.x, self.y = x, y
        self._chol = np.tril(chol)
        self._white = dtrsm(1.0, chol, np.column_stack([y, np.ones_like(y)]), lower=1)
        return self

    def append(self, x_new: np.ndarray, y_new: float, row: np.ndarray) -> Optional[float]:
        """Add one training point x_new (a 1 x d row) with target y_new.

        ``row`` is ``L^-1 r``, its whitened correlation to the training
        points, and becomes the new row of L. Returns the new pivot of
        L, or None, changing nothing, when the pivot is not safely
        positive.
        """
        n = len(self.y)
        d2 = 1.0 + self.fitted_jitter - float(row @ row)
        if not d2 > 0.5 * max(self.fitted_jitter, BASE_JITTER):
            return None
        d = math.sqrt(d2)
        if n == len(self._white):
            chol = np.zeros((2 * n, 2 * n), order="F")
            chol[:n, :n] = self._chol
            white = np.empty((2 * n, 2))
            white[:n] = self._white
            self._chol, self._white = chol, white
        self._chol[n, :n] = row
        self._chol[n, n] = d
        self._white[n] = (np.array([y_new, 1.0]) - row @ self._white[:n]) / d
        self.x = np.vstack([self.x, x_new])
        self.y = np.append(self.y, y_new)
        return d

    def whiten(self, corr: np.ndarray) -> np.ndarray:
        """Solve ``w L^T = corr`` for w; a column-major float block is
        solved in place. dtrsm reads only the lower triangle of L."""
        return dtrsm(1.0, self.factor, corr, side=1, lower=1, trans_a=1, overwrite_b=1)

    def moments(self, w: np.ndarray, ss: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation from a whitened block w
        over every training point, in fit order, and its row sums of
        squares ss."""
        mean = float(np.mean(self.y))
        variance = float(np.var(self.y))
        amplitude = variance if variance > 0 else 1.0
        white = self._white[: len(self.y)]
        mu = mean + w @ (white[:, 0] - mean * white[:, 1])
        # the prior variance is the amplitude: matern25(0) == 1.0 exactly
        sigma = np.sqrt(np.maximum(amplitude * (1.0 - ss), 0.0))
        return mu, sigma

    def predict(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at each row of x; a
        non-finite entry of x raises ValueError."""
        corr = correlation(np.asarray_chkfinite(x, dtype=float), self.x, self.length_scale)
        w = self.whiten(np.asfortranarray(corr))
        return self.moments(w, np.einsum("ij,ij->i", w, w))


class Posterior:
    """A GP's posterior at fixed query points, kept current while the
    query points themselves become training points one at a time.

    The whitened block lives in one column-major buffer with a column
    per training point and ``spare`` columns of room, so the block of
    the current training set is one contiguous array.
    """

    def __init__(self, gp: GaussianProcess, query: np.ndarray, x: np.ndarray,
                 y: np.ndarray, spare: int):
        self.gp = gp
        self.query = query
        self._buffer = np.empty((len(query), len(x) + spare), order="F")
        self._refactor(x, y, gp.jitter)

    @property
    def w(self) -> np.ndarray:
        """The whitened block ``r_star L^-T`` over the current training points."""
        return self._buffer[:, : len(self.gp.y)]

    def _refactor(self, x: np.ndarray, y: np.ndarray, jitter: float) -> None:
        self.gp.fit(x, y, jitter)
        block = self.w
        # the transpose of a column-major block is row-major
        correlation(x, self.query, self.gp.length_scale, out=block.T)
        self.gp.whiten(block)
        self._ss = np.einsum("ij,ij->i", block, block)

    def moments(self) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at every query point."""
        return self.gp.moments(self.w, self._ss)

    def add(self, i: int, y_new: float) -> None:
        """Make query point i a training point with target y_new."""
        w, point = self.w, self.query[i : i + 1]
        row = w[i].copy()
        d = self.gp.append(point, y_new, row)
        if d is None:
            self._refactor(np.vstack([self.gp.x, point]), np.append(self.gp.y, y_new),
                           _escalated(self.gp.fitted_jitter))
            return
        column = self._buffer[:, w.shape[1]]
        correlation(point, self.query, self.gp.length_scale, out=column[None, :])
        column -= w @ row
        column /= d
        self._ss += column * column


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
