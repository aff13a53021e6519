"""Gaussian process surrogate over the index vectors of a grid.

A point is an index vector, one index per axis of a grid with axis
sizes m. Two points correlate by their index offset o alone, which
only ``kernel`` computes: Matern nu=2.5 at unit length scale over
the steps ``|o| / (m - 1)`` (0 on a one-value axis), the min-max
normalized coordinates' differences, with no hyperparameter
optimization, which keeps fits deterministic and cheap at the batch
sizes this package uses. The kernel amplitude tracks the observation
variance and the mean function is the observation mean, so posterior
interpolation error at an observed point stays at the jitter scale even
for wide-spread objectives.

The jitter is relative to the amplitude: the kernel matrix is
``amp * (R + j I)``, with R the unscaled correlation of the training
points. The Cholesky factor L of ``R + j I`` therefore depends on the
training points only, not on the targets or on the amplitude they set.

L is only ever built by rank-one appends, from an empty factor at
``BASE_JITTER``. The new row of L for a point is ``l = L^-1 r``, its
correlation to the training points solved by L, with the pivot
``d = sqrt(1 + j - l.l)``. In exact arithmetic ``d^2 >= j``, since R is
positive semidefinite, and the rounding error of ``d^2`` stays far below
``BASE_JITTER``. So a computed ``d^2`` below half of j is taken as lost
to rounding: the factor starts over from empty at a tenfold jitter, up
to 1e-2, before giving up with SingularKernel.

Everything is computed in whitened form. With ``w = r_star L^-T``, the
correlations of the query points to the training points solved on the
right side by L, the posterior is

    mean     = y_mean + w . L^-1 y - y_mean w . L^-1 1
    variance = amp * (1 - sum(w * w))

The GP keeps the block w of its query points current, with its row sums
of squares and the running sums ``w L^-1 [y, 1]``, so that ``moments``
reads the posterior there in O(N) for N query points. Each append adds
the block column ``(r_query - w l) / d``, one N x n product. ``fit``
solves the whitened targets ``L^-1 [y, 1]``, O(n^2), and forms the
running sums in one N x n x 2 product. ``add`` appends a query point
with its target, such as a constant liar's lie: one more
forward-substitution step of ``L^-1 [y, 1]`` and an axpy of the new
column into each running sum. ``predict`` takes any index vectors and
whitens their correlation block in one ``dtrsm``.

The query points are the whole grid, every index vector in C order, or
given index vectors, such as random draws from a grid too large to
enumerate. A query point's position is its flat index on the whole grid
(``np.ravel_multi_index``, C order, as ``grid_rows`` lists them) and its
row otherwise; ``row`` maps a position back to its index vector. On the
whole grid the GP reads ``kernel`` from a table, ``prod(2m - 1)``
entries, tabulated from the grid of absolute offsets and its mirror
image. A point's correlations to every grid point are then one strided
window of the table, and those to the training points a gather from
that window. The table is less than ``2^d`` times the grid, and under
40 MB for any grid of 20000 points or fewer. Given index vectors, each
new column is ``kernel`` of the offsets to the new point, bit for bit the
window and gather of the whole grid.

The table depends on the axis sizes alone, so it is tabulated once per
grid per process: ``_shared_table`` keeps the last grid's table,
read-only, for every GP built on that grid, until a GP on another grid
replaces it, so at most one table is held. ``offset_table`` is the
pure function that tabulates it.

The buffers hold ``ROOM`` training points before they first grow, and
then double. They are allocated with ``np.empty`` (the factor with
``np.zeros``), so the room that no append reaches is never written and
takes no resident memory.

Since a fit is a sequence of appends, ``fit`` keeps the longest prefix
of the training points already factored that its points repeat, and
appends the rest: the same appends in the same order at the same jitter
as a fit from empty, so the result is that fit's bit for bit. Neither L
nor w depends on the targets, so a constant-liar point that later comes
back as a real record keeps its column.

``acquisition`` takes the standard normal CDF from scipy's ``ndtr`` and
writes the PDF out; both are what ``scipy.stats.norm`` computes at loc 0
and scale 1, bit for bit, without importing ``scipy.stats``.

Only this module and ``bayesian`` import numpy and scipy; ``pool`` loads
them on the first Bayesian proposal. Of scipy this module runs no Python
code, not even the package's ``__init__``: ``_compiled`` finds scipy's
directory with ``importlib.util.find_spec`` and loads a compiled module
from its file, under its full name, which runs the module's own numpy
ABI check. Importing this module loads the BLAS of
``scipy.linalg._fblas``; the first EI or PI score loads ``ndtr`` from
``scipy.special._special_ufuncs`` (``_ndtr``), so UCB never maps that
library. Both are the objects that ``scipy.linalg.blas`` and
``scipy.special`` hand out. No run imports those subpackages, whose
``__init__`` pulls in scipy's array-API layer, ``numpy.f2py`` and
``numpy.testing``. The acquisition names and their default weights live
in ``base`` (``DEFAULT_WEIGHTS``).
"""

from __future__ import annotations

import functools
import math
import os
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from types import ModuleType
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import SingularKernel


def _compiled(package: str, name: str) -> ModuleType:
    """The compiled module ``scipy.<package>.<name>``, loaded from its file
    without importing ``scipy`` or ``scipy.<package>``; ImportError when
    scipy is not installed or has no such module. It keeps its full name,
    under which a later import of the subpackage finds it loaded and hands
    out the same objects."""
    scipy = find_spec("scipy")
    if scipy is None:
        raise ImportError("scipy is not installed")
    directory = os.path.join(scipy.submodule_search_locations[0], package)
    finder = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(f"scipy.{package}.{name}")
    if spec is None:
        raise ImportError(f"no compiled module scipy.{package}.{name} in {directory}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_fblas = _compiled("linalg", "_fblas")
daxpy, dgemm, dtrsm, dtrsv = _fblas.daxpy, _fblas.dgemm, _fblas.dtrsm, _fblas.dtrsv


@functools.cache
def _ndtr() -> np.ufunc:
    """scipy's standard normal CDF, loaded on the first EI or PI score."""
    return _compiled("special", "_special_ufuncs").ndtr


SQRT5 = math.sqrt(5.0)

BASE_JITTER = 1e-6
MAX_JITTER = 1e-2
# training points the buffers hold before they first grow
ROOM = 64

SQRT_2PI = math.sqrt(2 * math.pi)


def matern25(dists: np.ndarray) -> np.ndarray:
    """``(1 + sqrt5 r + 5 r^2 / 3) exp(-sqrt5 r)`` at the distances r,
    written over them; the operations are those of the formula, in its
    order."""
    decay = np.exp(-SQRT5 * dists)
    square = 5.0 * dists
    square *= dists
    square /= 3.0
    dists *= SQRT5
    dists += 1.0
    dists += square
    dists *= decay
    return dists


def kernel(offsets: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """The unscaled Matern correlation of grid points by their index
    offsets, one offset vector along the last axis: the squared steps
    ``|o| / (m - 1)`` (0 on a one-value axis) summed axis by axis."""
    # 0 + x * x is x * x exactly, since a square is never -0.0
    square = np.zeros(offsets.shape[:-1])
    for k, m in enumerate(sizes):
        step = np.abs(offsets[..., k]) / max(m - 1, 1)
        square += step * step
    return matern25(np.sqrt(square))


def grid_rows(sizes: Sequence[int]) -> np.ndarray:
    """Every index vector of the grid, one per row, in C order: row i is
    the vector whose flat index is i."""
    return np.indices(sizes).reshape(len(sizes), -1).T


def offset_table(sizes: Sequence[int]) -> np.ndarray:
    """The correlation of two points of the grid by their index offset o:
    the entry at ``o + m - 1`` along each axis, for o from 1 - m to m - 1.
    ``kernel`` runs once, over the offsets of the grid's points from the
    origin, and the table mirrors them."""
    half = kernel(grid_rows(sizes), sizes)
    return half.reshape(sizes)[np.ix_(*(np.abs(np.arange(1 - m, m)) for m in sizes))]


@functools.lru_cache(maxsize=1)
def _shared_table(sizes: Tuple[int, ...]) -> np.ndarray:
    """``offset_table(sizes)``, read-only, for every GP on the grid: the
    memo keeps the last grid's table, and a new grid replaces it."""
    table = offset_table(sizes)
    table.flags.writeable = False
    return table


def _escalated(jitter: float) -> float:
    """The next jitter to try after a failed factorization."""
    jitter *= 10.0
    if jitter > MAX_JITTER:
        raise SingularKernel(f"kernel matrix not positive definite at jitter {jitter:.0e}")
    return jitter


class GaussianProcess:
    """Fixed-kernel GP regressor for maximization surrogates over the
    index vectors of a grid with axis sizes ``sizes``. The query points,
    whose posterior ``moments`` reads without a solve, are the whole
    grid, in C order, or the index vectors ``rows``."""

    def __init__(self, sizes: Sequence[int], rows: Optional[np.ndarray] = None):
        self.sizes = tuple(sizes)
        self.fitted_jitter = BASE_JITTER
        self.y: Optional[np.ndarray] = None
        if rows is None:
            self._table: Optional[np.ndarray] = _shared_table(self.sizes)
            n_query = math.prod(self.sizes)
        else:
            self._table = None
            self._candidates = np.asarray(rows)
            n_query = len(rows)
        # the training points' index vectors; L in the leading n x n
        # block; the query block w in the leading n columns, and the running
        # sum of w * w along each of its rows; the rows of L^-1 [y, 1]; and
        # the running sums w L^-1 [y, 1], one column each
        self._n = 0
        self._rows = np.empty((0, len(self.sizes)), dtype=int)
        self._chol = np.zeros((0, 0), order="F")
        self._block = np.empty((n_query, 0), order="F")
        self._ss = np.zeros(n_query)
        self._white: Optional[np.ndarray] = None
        self._sums: Optional[np.ndarray] = None

    @property
    def rows(self) -> np.ndarray:
        """The training points' index vectors, in fit order."""
        return self._rows[: self._n]

    @property
    def factor(self) -> np.ndarray:
        """L, the lower Cholesky factor of ``R + j I`` over the training points."""
        return self._chol[: self._n, : self._n]

    @property
    def block(self) -> np.ndarray:
        """w, the whitened correlation ``r_star L^-T`` of the query points."""
        return self._block[:, : self._n]

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Take the index vectors x, one per row, as the training points
        with targets y: keep the longest prefix of the points already
        factored that x repeats, and append the rest; ValueError when an
        index is outside its axis.

        A factor at an escalated jitter starts over from empty at the base
        jitter when it must drop points, since the points kept may factor
        at a lower jitter. When an append loses its pivot, every lower
        jitter has already failed on the points before it, so the factor
        starts over from empty at the next one.
        """
        x = self._index_vectors(x)
        n = min(self._n, len(x))
        differs = np.flatnonzero((self.rows[:n] != x[:n]).any(axis=1))
        keep = int(differs[0]) if len(differs) else n
        if keep < self._n:
            if self.fitted_jitter != BASE_JITTER:
                self.fitted_jitter, keep = BASE_JITTER, 0
            self._truncate(keep)
        self._reserve(len(x))
        while not all(self._append(row) for row in x[keep:]):
            self.fitted_jitter, keep = _escalated(self.fitted_jitter), 0
            self._truncate(0)
        return self._retarget(y)

    def add(self, i: int, value: float) -> "GaussianProcess":
        """Append the query point at position i as a training point with
        target value: a rank-one append, one forward-substitution step of
        ``L^-1 [y, 1]`` and an axpy of the new block column into each
        running sum. A lost pivot starts the factor over from empty at the
        next jitter, as in ``fit``."""
        row = self.row(i)
        if not self._append(row):
            x, y = np.vstack([self.rows, row]), np.append(self.y, value)
            self.fitted_jitter = _escalated(self.fitted_jitter)
            self._truncate(0)
            return self.fit(x, y)
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

    def _index_vectors(self, x: np.ndarray) -> np.ndarray:
        """x as index vectors of the grid, one per row; ValueError otherwise."""
        x = np.asarray(x)
        sizes = np.asarray(self.sizes)
        if x.ndim != 2 or x.shape[1] != len(sizes) or ((x < 0) | (x >= sizes)).any():
            raise ValueError(f"x holds a row that is not an index vector of the grid {self.sizes}")
        return x

    def row(self, i: int) -> np.ndarray:
        """The index vector of the query point at position i."""
        if self._table is None:
            return self._candidates[i]
        return np.array(np.unravel_index(i, self.sizes))

    def _reserve(self, n: int) -> None:
        """Room for n training points: ``ROOM`` at first, then twice as
        much whenever it is full. Only the points in use are copied."""
        room = len(self._chol)
        if n <= room:
            return
        grown = max(n, 2 * room, ROOM)
        used = self._n
        rows = np.empty((grown, len(self.sizes)), dtype=int)
        rows[:used] = self.rows
        chol = np.zeros((grown, grown), order="F")
        chol[:used, :used] = self.factor
        block = np.empty((len(self._block), grown), order="F")
        block[:, :used] = self.block
        self._rows, self._chol, self._block = rows, chol, block

    def _truncate(self, n: int) -> None:
        """Keep the first n training points.

        The sums of squares are summed again column by column, as the
        appends summed them, so that they stay a fresh fit's bit for bit.
        """
        self._n = n
        self._ss = np.zeros(len(self._block))
        for column in self.block.T:
            self._ss += column * column

    def _window(self, row: np.ndarray) -> np.ndarray:
        """The correlations of the grid point at index vector ``row`` to
        every grid point: a window of the table, shaped like the grid."""
        return self._table[tuple(slice(m - 1 - k, 2 * m - 1 - k)
                                 for m, k in zip(self.sizes, row.tolist()))]

    def _append(self, row: np.ndarray) -> bool:
        """Add the point at index vector ``row`` to the training points,
        to L and to the query block; False, changing nothing, when its
        pivot is not safely positive.

        The point's new row of L is ``l = L^-1 r``, its correlation to the
        training points solved by L, with the pivot ``d = sqrt(1 + j - l.l)``;
        the block's new column is ``(r_query - w l) / d``. On the whole
        grid, r_query is a window of the offset table and r a gather from
        it; otherwise each is one ``kernel`` call on the offsets to ``row``.
        """
        n = self._n
        self._reserve(n + 1)
        column = self._block[:, n]
        if self._table is None:
            column[:] = kernel(self._candidates - row, self.sizes)
            corr = kernel(self.rows - row, self.sizes)
        else:
            column.reshape(self.sizes)[...] = self._window(row)
            corr = column[np.ravel_multi_index(self.rows.T, self.sizes)]
        # dtrsv copies the strided factor to a contiguous one first, so
        # the solve does not depend on the room left for appends
        new = dtrsv(self.factor, corr, lower=1) if n else corr
        d2 = 1.0 + self.fitted_jitter - float(new @ new)
        if not d2 > 0.5 * self.fitted_jitter:
            return False
        d = math.sqrt(d2)
        self._rows[n] = row
        self._chol[n, :n] = new
        self._chol[n, n] = d
        column -= self._block[:, :n] @ new
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
        # np.mean and np.var bit for bit, without their call overhead
        mean = float(np.add.reduce(self.y)) / len(self.y)
        d = self.y - mean
        variance = float(np.add.reduce(d * d)) / len(d)
        amplitude = variance if variance > 0 else 1.0
        mu = mean + (sums[:, 0] - mean * sums[:, 1])
        # the prior variance is the amplitude: matern25(0) == 1.0 exactly
        sigma = np.sqrt(np.maximum(amplitude * (1.0 - ss), 0.0))
        return mu, sigma

    def moments(self) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at every query point."""
        return self._moments(self._sums, self._ss)

    def predict(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at each index vector of x,
        one per row; ValueError as in ``fit``."""
        corr = kernel(self._index_vectors(x)[:, None, :] - self.rows, self.sizes)
        # solve w L^T = corr in place; dtrsm reads only the lower triangle of L
        w = dtrsm(1.0, self.factor, np.asfortranarray(corr), side=1, lower=1, trans_a=1,
                  overwrite_b=1)
        return self._moments(dgemm(1.0, w, self._white), np.einsum("ij,ij->i", w, w))


def acquisition(name: str, mu: np.ndarray, sigma: np.ndarray,
                best: float, weight: float) -> np.ndarray:
    """Score candidates for maximization.

    EI and PI use ``weight`` as the improvement margin xi; UCB uses it
    as the confidence multiplier beta. EI and PI take the normal CDF
    from ``ndtr`` (``_ndtr``).
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if name == "UCB":
        return mu + weight * sigma
    ndtr = _ndtr()
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
