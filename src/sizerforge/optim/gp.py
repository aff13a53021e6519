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

    mean     = y_mean + w . L^-1 y - y_mean w . L^-1 1
    variance = amp * (1 - sum(w * w))

Every fit solves the whitened targets ``L^-1 [y, 1]``, O(n^2).
``predict`` whitens the correlation block of its query points in one
``dtrsm``. A GP built over fixed query points, such as the Bayesian
proposer's candidates, keeps instead their block w current, with its
row sums of squares and the running sums ``w L^-1 [y, 1]``, so that
``moments`` reads the posterior there in O(N) for N query points. Each
append adds the block column ``(r_query - w l) / d``, one N x n product.
``add`` appends a point with its target, such as a constant liar's lie:
one more forward-substitution step of ``L^-1 [y, 1]`` and an axpy of
the new column into each running sum. A fit forms the running sums
again, in one N x n x 2 product.

The query points may be a ``grid``, given by its axis sizes: every index
vector in C order, at coordinates ``k / (m - 1)``. There the correlation
of two points depends only on their index offsets, so the GP tabulates
it once, ``prod(2m - 1)`` entries, from the grid of absolute offsets and
its mirror image. A point's correlations to every grid point are then
one strided window of the table, and those to the training points, which
must be grid points too, a gather from that window. Where every
``m - 1`` is 1 or a power of two, the coordinates and their differences
are exact and the table is ``correlation`` bit for bit; elsewhere the two
differ by rounding. The table is less than ``2^d`` times the grid, and
under 40 MB for any grid of 20000 points or fewer.

The buffers hold ``ROOM`` training points before they first grow, and
then double. They are allocated with ``np.empty`` (the factor with
``np.zeros``), so the room that no append reaches is never written and
takes no resident memory.

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
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.blas import daxpy, dgemm, dtrsm, dtrsv
from scipy.spatial.distance import cdist
from scipy.special import ndtr

from ..errors import SingularKernel

SQRT5 = math.sqrt(5.0)

DEFAULT_LENGTH_SCALE = 1.0
BASE_JITTER = 1e-6
MAX_JITTER = 1e-2
# training points the buffers hold before they first grow
ROOM = 64

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


def normalize(rows: Sequence[Sequence[int]], sizes: Sequence[int]) -> np.ndarray:
    """Index vectors of a grid with these axis sizes, one per row, at
    coordinates ``k / (m - 1)`` (0 on a one-value axis)."""
    return np.asarray(rows, dtype=float) / np.maximum(np.asarray(sizes) - 1, 1)


def grid_points(sizes: Sequence[int]) -> np.ndarray:
    """Every index vector of the grid, in C order, normalized."""
    return normalize(np.indices(sizes).reshape(len(sizes), -1).T, sizes)


def offset_table(sizes: Sequence[int], length_scale: float) -> np.ndarray:
    """The correlation of two points of the grid by their index offset o:
    the entry at ``o + m - 1`` along each axis, for o from 1 - m to m - 1."""
    half = correlation(np.zeros((1, len(sizes))), grid_points(sizes), length_scale)[0]
    return half.reshape(sizes)[np.ix_(*(np.abs(np.arange(1 - m, m)) for m in sizes))]


def _escalated(jitter: float) -> float:
    """The next jitter to try after a failed factorization."""
    jitter = jitter * 10.0 if jitter > 0 else BASE_JITTER
    if jitter > MAX_JITTER:
        raise SingularKernel(f"kernel matrix not positive definite at jitter {jitter:.0e}")
    return jitter


class GaussianProcess:
    """Fixed-kernel GP regressor for maximization surrogates.

    Given ``query`` points, or a ``grid`` of them by its axis sizes, it
    keeps their whitened block, its row sums of squares and the running
    sums of the posterior mean current through every fit and ``add``, so
    that ``moments`` reads the posterior there without a solve.
    """

    def __init__(self, length_scale: float = DEFAULT_LENGTH_SCALE,
                 jitter: float = BASE_JITTER, query: Optional[np.ndarray] = None,
                 grid: Optional[Sequence[int]] = None):
        self.length_scale = length_scale
        self.jitter = jitter
        self.fitted_jitter = jitter
        self.y: Optional[np.ndarray] = None
        self._table: Optional[np.ndarray] = None
        if grid is not None:
            self._grid = tuple(grid)
            self._spans = [max(m - 1, 1) for m in grid]
            # the flat index of an index vector is its dot with these
            self._strides = [math.prod(grid[j + 1 :]) for j in range(len(grid))]
            self._table = offset_table(grid, length_scale)
            query = grid_points(grid)
        # the query points, then the training points, one row each; on a
        # grid, the training points' flat indices; L in the leading n x n
        # block; the query block w in the leading n columns, and the running
        # sum of w * w along each of its rows; the rows of L^-1 [y, 1]; and
        # the running sums w L^-1 [y, 1], one column each
        self._n_query = 0 if query is None else len(query)
        self._n = 0
        self._sites = None if query is None else np.array(query, dtype=float)
        self._flat = np.empty(0, dtype=int)
        self._chol = np.zeros((0, 0), order="F")
        self._block = np.empty((self._n_query, 0), order="F")
        self._ss = np.zeros(self._n_query)
        self._white: Optional[np.ndarray] = None
        self._sums: Optional[np.ndarray] = None

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
        self._reserve(len(x))
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

    def add(self, point: np.ndarray, value: float) -> "GaussianProcess":
        """Append one training point with its target: a rank-one append,
        one forward-substitution step of ``L^-1 [y, 1]`` and an axpy of the
        new block column into each running sum. A lost pivot refits
        everything at the next jitter, as ``refit`` does."""
        point = np.asarray(point, dtype=float)
        if not self._append(point):
            return self.fit(np.vstack([self.x, point]), np.append(self.y, value),
                            _escalated(self.fitted_jitter))
        n = self._n - 1
        step = (np.array([value, 1.0]) - self._chol[n, :n] @ self._white) / self._chol[n, n]
        self.y = np.append(self.y, value)
        self._white = np.vstack([self._white, step])
        column = self._block[:, n]
        # daxpy updates its y in place only when y is contiguous; binding
        # its result back keeps the update whatever the sums' layout
        for j in (0, 1):
            self._sums[:, j] = daxpy(column, self._sums[:, j], a=step[j])
        return self

    def _reserve(self, n: int) -> None:
        """Room for n training points: ``ROOM`` at first, then twice as
        much whenever it is full. Only the points in use are copied."""
        room = len(self._chol)
        if n <= room:
            return
        grown = max(n, 2 * room, ROOM)
        m, used = self._n_query, self._n
        sites = np.empty((m + grown, self._sites.shape[1]))
        sites[: m + used] = self._sites[: m + used]
        flat = np.empty(grown, dtype=int)
        flat[:used] = self._flat[:used]
        chol = np.zeros((grown, grown), order="F")
        chol[:used, :used] = self.factor
        block = np.empty((m, grown), order="F")
        block[:, :used] = self.block
        self._sites, self._flat, self._chol, self._block = sites, flat, chol, block
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

    def _window(self, point: np.ndarray) -> Tuple[np.ndarray, int]:
        """The point's correlations to every grid point, as a window of the
        table shaped like the grid, and the point's flat index; ValueError
        when the point is not on the grid."""
        coords = point.tolist()
        index = [round(c * span) for c, span in zip(coords, self._spans)]
        if len(coords) != len(self._grid) or not all(
                0 <= k < m and k / span == c
                for k, m, span, c in zip(index, self._grid, self._spans, coords)):
            raise ValueError(f"{point} is not a point of the grid {self._grid}")
        window = tuple(slice(m - 1 - k, 2 * m - 1 - k) for m, k in zip(self._grid, index))
        return self._table[window], sum(k * stride for k, stride in zip(index, self._strides))

    def _append(self, point: np.ndarray) -> bool:
        """Add one training point to L and to the query block; False,
        changing nothing, when its pivot is not safely positive.

        The point's new row of L is ``l = L^-1 r``, its correlation to the
        training points solved by L, with the pivot ``d = sqrt(1 + j - l.l)``;
        the block's new column is ``(r_query - w l) / d``. On a grid,
        r_query is a window of the offset table and r a gather from it;
        otherwise one correlation call gives both.
        """
        m, n = self._n_query, self._n
        self._reserve(n + 1)
        column = self._block[:, n]
        if self._table is None:
            corr = correlation(point[None, :], self._sites[: m + n], self.length_scale,
                               out=self._corr[:, : m + n])[0]
            column[:] = corr[:m]
            corr = corr[m:]
        else:
            window, flat = self._window(point)
            column.reshape(self._grid)[...] = window
            corr = column[self._flat[:n]]
            self._flat[n] = flat
        # dtrsv copies the strided factor to a contiguous one first, so
        # the solve does not depend on the room left for appends
        row = dtrsv(self.factor, corr, lower=1) if n else corr
        d2 = 1.0 + self.fitted_jitter - float(row @ row)
        if not d2 > 0.5 * max(self.fitted_jitter, BASE_JITTER):
            return False
        d = math.sqrt(d2)
        self._sites[m + n] = point
        self._chol[n, :n] = row
        self._chol[n, n] = d
        column -= self._block[:, :n] @ row
        column /= d
        self._ss += column * column
        self._n = n + 1
        return True

    def _retarget(self, y: np.ndarray) -> "GaussianProcess":
        """Take y as the targets of the training points, in order: solve
        the whitened targets and form the running sums from them."""
        self.y = np.asarray(y, dtype=float)
        self._white = dtrsm(1.0, self.factor, np.column_stack([self.y, np.ones_like(self.y)]),
                            lower=1)
        # scipy's BLAS, like the solves: numpy's gemm would page in a second
        # BLAS library's level-3 code and buffers
        self._sums = dgemm(1.0, self.block, self._white)
        return self

    def _moments(self, sums: np.ndarray, ss: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation from the two columns
        ``w L^-1 [y, 1]`` of a whitened block w over every training point,
        in fit order, and its row sums of squares ss."""
        mean = float(np.mean(self.y))
        variance = float(np.var(self.y))
        amplitude = variance if variance > 0 else 1.0
        mu = mean + (sums[:, 0] - mean * sums[:, 1])
        # the prior variance is the amplitude: matern25(0) == 1.0 exactly
        sigma = np.sqrt(np.maximum(amplitude * (1.0 - ss), 0.0))
        return mu, sigma

    def moments(self) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at every query point."""
        return self._moments(self._sums, self._ss)

    def predict(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at each row of x; a
        non-finite entry of x raises ValueError."""
        corr = correlation(np.asarray_chkfinite(x, dtype=float), self.x, self.length_scale)
        # solve w L^T = corr in place; dtrsm reads only the lower triangle of L
        w = dtrsm(1.0, self.factor, np.asfortranarray(corr), side=1, lower=1, trans_a=1,
                  overwrite_b=1)
        return self._moments(dgemm(1.0, w, self._white), np.einsum("ij,ij->i", w, w))


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
