"""Gaussian process surrogate on min-max normalized index coordinates.

Matern nu=2.5 kernel with a fixed length scale; no hyperparameter
optimization, which keeps fits deterministic and cheap at the batch
sizes this package uses. The kernel amplitude tracks the observation
variance and the mean function is the observation mean, so posterior
interpolation error at an observed point stays at the jitter scale even
for wide-spread objectives.

The jitter is relative to the amplitude: the kernel matrix is
``amp * (R + j I)``, with R the unscaled correlation of the training
points. The Cholesky factor L of ``R + j I`` therefore depends on the
training points only, not on the targets or on the amplitude they set.

L is only ever built by rank-one appends, from an empty factor. The new
row of L for a point is ``l = L^-1 r``, its correlation to the training
points solved by L, with the pivot ``d = sqrt(1 + j - l.l)``. In exact
arithmetic ``d^2 >= j``, since R is positive semidefinite, and the
rounding error of ``d^2`` stays far below ``BASE_JITTER``. So a computed
``d^2`` below half of j, or of ``BASE_JITTER`` when j is smaller, is
taken as lost to rounding: ``fit`` starts over from empty at a tenfold
jitter, up to 1e-2, before giving up with SingularKernel.

Everything is computed in whitened form. With ``w = r_star L^-T``, the
correlations of the query points to the training points solved on the
right side by L, the posterior is

    mean     = y_mean + w . L^-1 (y - y_mean)
    variance = amp * (1 - sum(w * w))

The whitened targets ``L^-1 y`` and ``L^-1 1`` are solved after every
fit, O(n^2), so the mean and the amplitude are read off the targets at
no factoring cost. ``predict`` whitens the correlation block of its
query points in one ``dtrsm``. A GP built with fixed ``query`` points,
such as the Bayesian proposer's candidates, keeps their block w and its
row sums of squares current instead: each append adds the column
``(r_query - w l) / d``, O(N n) for N query points.

Since a fit is a sequence of appends, a fit over points that repeat a
prefix of the ones already factored can keep that prefix. ``refit``
does so and is ``fit``, bit for bit: the same appends in the same order
at the same jitter. Neither L nor w depends on the targets, so a
constant-liar point that later comes back as a real record keeps its
column.

``acquisition`` takes the standard normal CDF from ``scipy.special.ndtr``
and writes the PDF out; both are what ``scipy.stats.norm`` computes at
loc 0 and scale 1, bit for bit, without importing ``scipy.stats``.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np
from scipy.linalg.blas import dtrsm, dtrsv
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
    """Fixed-kernel GP regressor for maximization surrogates.

    Given ``query`` points, it keeps their whitened block and its row
    sums of squares current through every fit, so that ``moments`` reads
    the posterior there without a solve.
    """

    def __init__(self, length_scale: float = DEFAULT_LENGTH_SCALE,
                 jitter: float = BASE_JITTER, query: Optional[np.ndarray] = None,
                 capacity: int = 0):
        self.length_scale = length_scale
        self.jitter = jitter
        self.fitted_jitter = jitter
        self.y: Optional[np.ndarray] = None
        # the query points, then the training points, one row each; L in
        # the leading n x n block; the rows of [L^-1 y, L^-1 1]; the query
        # block w in the leading n columns, and the running sum of w * w
        # along each of its rows. The first fit makes room for
        # ``capacity`` training points, and appends grow the room by half.
        self._n_query = 0 if query is None else len(query)
        self._n = 0
        self._capacity = capacity
        self._sites = None if query is None else np.array(query, dtype=float)
        self._chol = np.zeros((0, 0), order="F")
        self._block = np.empty((self._n_query, 0), order="F")
        self._ss = np.zeros(self._n_query)
        self._white: Optional[np.ndarray] = None

    @property
    def query(self) -> np.ndarray:
        """The fixed query points."""
        return self._sites[: self._n_query]

    @property
    def x(self) -> np.ndarray:
        """The training points, in fit order."""
        return self._sites[self._n_query : self._n_query + self._n]

    @property
    def factor(self) -> np.ndarray:
        """L, the lower Cholesky factor of ``R + j I`` over the training points."""
        return self._chol[: self._n, : self._n]

    @property
    def block(self) -> np.ndarray:
        """w, the whitened correlation ``r_star L^-T`` of the query points."""
        return self._block[:, : self._n]

    def fit(self, x: np.ndarray, y: np.ndarray,
            jitter: Optional[float] = None) -> "GaussianProcess":
        """Factor the correlation of x by appending its rows one at a time
        to an empty factor, at ``jitter`` first (default: the
        constructor's); a lost pivot starts over at the next jitter."""
        x = np.asarray(x, dtype=float)
        jitter = self.jitter if jitter is None else jitter
        if self._sites is None:  # no query points
            self._sites = np.empty((0, x.shape[1]))
        self._reserve(max(len(x), self._capacity))
        while True:
            self.fitted_jitter = jitter
            self._truncate(0)
            if all(self._append(point) for point in x):
                return self._retarget(y)
            jitter = _escalated(jitter)

    def refit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """``fit(x, y)``, bit for bit, from the training points already
        factored: keep the longest prefix of them that x repeats and
        append the rest.

        A factor at an escalated jitter starts over when it must drop
        points, since the points kept may factor at a lower jitter. When
        an append loses its pivot, every lower jitter has already failed
        on the prefix, so the factor starts over at the next one.
        """
        x = np.asarray(x, dtype=float)
        n = min(self._n, len(x))
        differs = np.flatnonzero((self.x[:n] != x[:n]).any(axis=1))
        keep = int(differs[0]) if len(differs) else n
        if keep < self._n:
            if self.fitted_jitter != self.jitter:
                return self.fit(x, y)
            self._truncate(keep)
        for point in x[keep:]:
            if not self._append(point):
                return self.fit(x, y, _escalated(self.fitted_jitter))
        return self._retarget(y)

    def _reserve(self, n: int) -> None:
        """Room for n training points, growing by half when full."""
        capacity = len(self._chol)
        if n <= capacity:
            return
        grown = max(n, capacity + capacity // 2)
        sites = np.empty((self._n_query + grown, self._sites.shape[1]))
        sites[: len(self._sites)] = self._sites
        chol = np.zeros((grown, grown), order="F")
        chol[:capacity, :capacity] = self._chol
        block = np.empty((self._n_query, grown), order="F")
        block[:, :capacity] = self._block
        self._sites, self._chol, self._block = sites, chol, block
        self._corr = np.empty((1, len(sites)))

    def _truncate(self, n: int) -> None:
        """Keep the first n training points.

        The sums of squares are summed again column by column, as the
        appends summed them, so that they stay a fresh fit's bit for bit.
        """
        self._n = n
        self._ss = np.zeros(self._n_query)
        for column in self.block.T:
            self._ss += column * column

    def _append(self, point: np.ndarray) -> bool:
        """Add one training point to L and to the query block; False,
        changing nothing, when its pivot is not safely positive.

        The point's new row of L is ``l = L^-1 r``, its correlation to the
        training points solved by L, with the pivot ``d = sqrt(1 + j - l.l)``;
        the block's new column is ``(r_query - w l) / d``. One correlation
        call gives both r and r_query.
        """
        m, n = self._n_query, self._n
        corr = correlation(point[None, :], self._sites[: m + n], self.length_scale,
                           out=self._corr[:, : m + n])[0]
        # dtrsv copies the strided factor to a contiguous one first, so
        # the solve does not depend on the room left for appends
        row = dtrsv(self.factor, corr[m:], lower=1) if n else corr[m:]
        d2 = 1.0 + self.fitted_jitter - float(row @ row)
        if not d2 > 0.5 * max(self.fitted_jitter, BASE_JITTER):
            return False
        d = math.sqrt(d2)
        self._reserve(n + 1)
        self._sites[m + n] = point
        self._chol[n, :n] = row
        self._chol[n, n] = d
        column = self._block[:, n]
        np.subtract(corr[:m], self._block[:, :n] @ row, out=column)
        column /= d
        self._ss += column * column
        self._n = n + 1
        return True

    def _retarget(self, y: np.ndarray) -> "GaussianProcess":
        """Take y as the targets of the training points, in order."""
        self.y = np.asarray(y, dtype=float)
        self._white = dtrsm(1.0, self.factor, np.column_stack([self.y, np.ones_like(self.y)]),
                            lower=1)
        return self

    def _moments(self, w: np.ndarray, ss: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation from a whitened block w
        over every training point, in fit order, and its row sums of
        squares ss."""
        mean = float(np.mean(self.y))
        variance = float(np.var(self.y))
        amplitude = variance if variance > 0 else 1.0
        mu = mean + w @ (self._white[:, 0] - mean * self._white[:, 1])
        # the prior variance is the amplitude: matern25(0) == 1.0 exactly
        sigma = np.sqrt(np.maximum(amplitude * (1.0 - ss), 0.0))
        return mu, sigma

    def moments(self) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at every query point."""
        return self._moments(self.block, self._ss)

    def predict(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at each row of x; a
        non-finite entry of x raises ValueError."""
        corr = correlation(np.asarray_chkfinite(x, dtype=float), self.x, self.length_scale)
        # solve w L^T = corr in place; dtrsm reads only the lower triangle of L
        w = dtrsm(1.0, self.factor, np.asfortranarray(corr), side=1, lower=1, trans_a=1,
                  overwrite_b=1)
        return self._moments(w, np.einsum("ij,ij->i", w, w))


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
