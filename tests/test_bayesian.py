"""Gaussian-process regression and acquisition-driven batch proposals."""

import dataclasses
import itertools
import random as pyrandom
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.blas import dtrsm
from scipy.spatial.distance import cdist
from scipy.stats import norm

from sizerforge.core import EvaluatedDesign, History, design_from
from sizerforge.errors import InsufficientHistory, SingularKernel
from sizerforge.optim.base import ACQUISITIONS, history_view, materialize
from sizerforge.optim.bayesian import ENUMERATION_LIMIT, candidate_rows, propose_bayesian
from sizerforge.optim import bayesian as bayesian_module
from sizerforge.optim import gp as gp_module
from sizerforge.optim.gp import (ROOM, GaussianProcess, acquisition, grid_rows, kernel, matern25,
                                   offset_table)
from sizerforge.space import SearchSpace, index_rows

GRID = (0.84, 1.05, 1.26, 1.47, 1.68, 1.89, 2.10, 2.31, 2.52)


def _space():
    return SearchSpace(
        active={"W_a": GRID, "W_b": GRID},
        fixed={},
        full_grid={"W_a": GRID, "W_b": GRID},
        generation=0,
    )


def _seed_history(pairs):
    hist = History()
    for (ia, ib), fom in pairs:
        hist.append(
            EvaluatedDesign(
                design=design_from({"W_a": GRID[ia], "W_b": GRID[ib]}),
                raw_metrics={},
                normalized={},
                fom=fom,
                feasible=False,
                sim_status="ok",
                iteration=1,
                method="lhs",
                eval_index=hist.next_eval_index(),
                wall_time=0.0,
            )
        )
    return hist


OBS = [((0, 0), 0.2), ((2, 6), 0.45), ((4, 4), 0.8), ((6, 2), 0.55), ((8, 8), 0.3)]


def normalize(rows, sizes):
    """The references' coordinates of index vectors on a grid with these
    axis sizes: ``k / (m - 1)``, and 0 on a one-value axis."""
    return np.asarray(rows, dtype=float) / np.maximum(np.asarray(sizes) - 1, 1)


# ----------------------------------------------------------------- gp


def test_gp_posterior_interpolates_observations():
    rng = np.random.default_rng(17)
    sizes = (17, 17, 17)
    rows = _grid_rows(17, 3, rng, 12)
    x = normalize(rows, sizes)
    y = np.sin(3 * x[:, 0]) + x[:, 1] ** 2 - 0.5 * x[:, 2]
    gp = GaussianProcess(sizes, rows).fit(rows, y)
    for mu, sigma in (gp.predict(rows), gp.moments()):
        assert np.max(np.abs(mu - y)) < 1e-4
        assert np.max(sigma) < 1e-3


def test_gp_uncertainty_grows_away_from_data():
    gp = GaussianProcess((6,)).fit([[0], [1], [2]], np.array([0.0, 0.5, 0.3]))
    _, sigma_near = gp.predict(np.array([[1]]))
    _, sigma_far = gp.predict(np.array([[5]]))
    assert sigma_far[0] > sigma_near[0]


def test_gp_duplicate_rows_factor_at_the_base_jitter():
    # three coincident rows: the jitter alone keeps their pivots positive
    gp = GaussianProcess((11,)).fit([[1], [1], [1], [5]], np.array([1.0, 1.0, 1.0, 2.0]))
    assert gp.fitted_jitter == 1e-6
    mu, _ = gp.predict(np.array([[5]]))
    assert abs(mu[0] - 2.0) < 0.1


def test_matern_kernel_shape():
    # exactly 1.0 at distance 0, so the posterior's prior variance is the amplitude
    assert np.array_equal(matern25(np.zeros(3)), np.ones(3))
    vals = matern25(np.linspace(0, 5, 50))
    assert np.all(np.diff(vals) < 0)  # monotone decreasing in distance


# --------------------------------------------- scipy's kernels, loaded bare


def test_the_compiled_kernels_are_the_public_scipy_objects():
    import scipy.linalg.blas
    import scipy.special

    for name in ("daxpy", "dgemm", "dtrsm", "dtrsv"):
        assert getattr(gp_module, name) is getattr(scipy.linalg.blas, name)
    assert gp_module.ndtr is scipy.special.ndtr


def test_a_compiled_module_that_scipy_lacks_is_an_import_error():
    with pytest.raises(ImportError, match="scipy.linalg._no_such"):
        gp_module._compiled("linalg", "_no_such")


# ---------------------------------------------------------- acquisition


def test_ucb_is_mu_plus_beta_sigma():
    mu = np.array([0.1, 0.5])
    sigma = np.array([0.2, 0.1])
    out = acquisition("UCB", mu, sigma, best=0.4, weight=2.0)
    assert out == pytest.approx(mu + 2.0 * sigma)


def test_ei_nonnegative_and_zero_sigma_degenerates():
    mu = np.array([0.3, 0.6])
    sigma = np.array([0.0, 0.0])
    out = acquisition("EI", mu, sigma, best=0.4, weight=0.0)
    assert out[0] == 0.0  # below the incumbent, no improvement possible
    assert out[1] == pytest.approx(0.2)
    rng = np.random.default_rng(2)
    out = acquisition("EI", rng.normal(size=50), rng.uniform(0.01, 1, 50), 0.0, 0.1)
    assert np.all(out >= 0)


def test_pi_is_a_probability():
    rng = np.random.default_rng(3)
    out = acquisition("PI", rng.normal(size=50), rng.uniform(0.01, 1, 50), 0.0, 0.1)
    assert np.all((0 <= out) & (out <= 1))


def test_unknown_acquisition_rejected():
    with pytest.raises(ValueError):
        acquisition("greedy", np.zeros(1), np.ones(1), 0.0, 1.0)


def _norm_acquisition(name, mu, sigma, best, weight):
    """EI and PI written with scipy.stats.norm."""
    safe = np.where(sigma > 0, sigma, 1.0)
    z = (mu - best - weight) / safe
    if name == "PI":
        return np.where(sigma > 0, norm.cdf(z), (mu - best - weight > 0).astype(float))
    out = np.maximum((mu - best - weight) * norm.cdf(z) + sigma * norm.pdf(z), 0.0)
    return np.where(sigma > 0, out, np.maximum(mu - best - weight, 0.0))


@pytest.mark.parametrize("name", ["EI", "PI"])
def test_ei_and_pi_equal_the_scipy_stats_norm_formulas_bit_for_bit(name):
    rng = np.random.default_rng(5)
    mu = np.concatenate([
        rng.normal(size=4000),
        rng.normal(scale=1e3, size=1000),  # |z| far past where the tails underflow
        [0.0, -0.0, 0.4, 0.4, 0.5, 0.3, 1e300, -1e300],
    ])
    sigma = np.concatenate([
        rng.uniform(0.0, 1.0, size=4000),
        rng.uniform(1e-3, 1e-1, size=1000),
        [0.0, 0.0, 0.0, 1e-300, 1e-300, 1e-300, 1.0, 1.0],
    ])
    sigma[rng.integers(0, 4000, size=200)] = 0.0
    for best, weight in [(0.0, 0.0), (0.4, 0.01), (-2.5, 0.1), (30.0, 0.0)]:
        with np.errstate(over="ignore"):  # z = ±inf at the 1e±300 entries
            got = acquisition(name, mu, sigma, best, weight)
            want = _norm_acquisition(name, mu, sigma, best, weight)
        assert np.array_equal(got, want)


# ------------------------------------------------------------- proposals


def test_needs_five_observations():
    space = _space()
    hist = _seed_history(OBS[:4])
    with pytest.raises(InsufficientHistory):
        propose_bayesian(space, hist, 5, seed=0)


def test_out_of_space_records_do_not_count():
    space = _space()
    hist = _seed_history(OBS[:3])
    # two more records, but outside the active lists after a narrow
    narrow = SearchSpace(
        active={"W_a": GRID[:3], "W_b": GRID[:3]},
        fixed={},
        full_grid={"W_a": GRID, "W_b": GRID},
        generation=1,
    )
    hist2 = _seed_history(OBS)
    with pytest.raises(InsufficientHistory):
        propose_bayesian(narrow, hist2, 5, seed=0)
    del hist  # 3 valid everywhere is below the floor anyway


def test_proposals_avoid_history_and_stay_in_space():
    space = _space()
    hist = _seed_history(OBS)
    proposal = propose_bayesian(space, hist, 6, seed=1)
    assert len(proposal.designs) == 6
    evaluated = {r.design.id for r in hist.records}
    for d in proposal.designs:
        assert d.id not in evaluated
        assert d.assignment["W_a"] in GRID
    ids = [d.id for d in proposal.designs]
    assert len(set(ids)) == len(ids)


def test_first_pick_maximizes_the_acquisition():
    # recompute the scored sweep independently over the enumerated
    # candidate set and compare the argmax with the proposal's first pick
    space = _space()
    hist = _seed_history(OBS)
    proposal = propose_bayesian(space, hist, 1, seed=5, acquisition_function="UCB",
                                exploration_weight=2.0)

    observations = hist.valid_records()
    obs_rows = [
        (GRID.index(r.design.assignment["W_a"]), GRID.index(r.design.assignment["W_b"]))
        for r in observations
    ]
    y = np.array([r.fom for r in observations])
    rows = grid_rows(space.sizes())
    evaluated = {r.design.id for r in hist.records}
    rows = [
        row
        for row in rows
        if design_from({"W_a": GRID[row[0]], "W_b": GRID[row[1]]}).id not in evaluated
    ]
    gp = GaussianProcess(space.sizes(), np.array(rows)).fit(obs_rows, y)
    mu, sigma = gp.predict(np.array(rows))
    scores = acquisition("UCB", mu, sigma, float(np.max(y)), 2.0)
    best_row = rows[int(np.argmax(scores))]
    want = {"W_a": GRID[best_row[0]], "W_b": GRID[best_row[1]]}
    assert proposal.designs[0].assignment == want


def test_batch_diversity_via_constant_liar():
    space = _space()
    hist = _seed_history(OBS)
    proposal = propose_bayesian(space, hist, 5, seed=2, acquisition_function="EI")
    ids = [d.id for d in proposal.designs]
    assert len(set(ids)) == 5
    assert len(proposal.diagnostics["acquisition_values"]) == 5


def test_determinism_per_seed():
    space = _space()
    hist = _seed_history(OBS)
    a = propose_bayesian(space, hist, 4, seed=3)
    b = propose_bayesian(space, hist, 4, seed=3)
    assert [d.id for d in a.designs] == [d.id for d in b.designs]


def test_small_space_candidates_enumerate_fully():
    space = _space()
    rows = grid_rows(space.sizes())
    assert len(rows) == 81
    # every index vector once, in the order of itertools.product
    assert [tuple(row) for row in rows.tolist()] == list(itertools.product(range(9), range(9)))


# ------------------------------------------- reference: the per-pick path
#
# The straightforward algorithm: every candidate row materialized and
# hashed to drop evaluated designs, and every constant-liar pick
# refitting the GP from scratch, recomputing all candidate distances by
# broadcasting and taking the posterior variance from the two-solve form
# diag(k_star K^-1 k_star^T), with K = amp (R + j I). The proposer fits
# once per batch and appends each lie to the factor, so its acquisition
# values agree with these to a relative 1e-9, not bit for bit. Its picks
# are the reference's, except where the reference's two best scores
# agree to ACQ_RTOL: such a tie may go either way, and the reference then
# continues from the proposer's pick. (The reference sums the squared
# differences axis by axis, in order, as cdist does, so its distances are
# cdist's bit for bit at every dimension; np.sum would add 8 or more
# terms pairwise.)

ACQ_RTOL, ACQ_ATOL = 1e-9, 1e-12
# the picks that may go to the other side of a reference tie, per case;
# shape0 ties two EI values of 5.70e-22 and two PI values of 9.42e-20,
# each pair equal to 11 digits
TIE_PICKS = {((3, 7, 6, 0), "EI"): 1, ((3, 7, 6, 0), "PI"): 1}


def _pairwise(a, b):
    diff = a[:, None, :] - b[None, :, :]
    square = np.zeros(diff.shape[:2])
    for k in range(diff.shape[-1]):
        square += diff[..., k] * diff[..., k]
    return np.sqrt(square)


@pytest.mark.parametrize("dims", [1, 7, 8, 10])
def test_the_reference_distances_are_cdist_bit_for_bit(dims):
    rng = np.random.default_rng(dims)
    a, b = rng.random((40, dims)), rng.random((60, dims))
    assert np.array_equal(_pairwise(a, b), cdist(a, b))


def _reference_posterior(x, y, query, jitter=1e-6):
    amplitude = float(np.var(y)) or 1.0
    y_mean = float(np.mean(y))
    r = matern25(_pairwise(x, x))
    while True:
        try:
            factor = cho_factor(amplitude * (r + jitter * np.eye(len(x))), lower=True)
            break
        except LinAlgError:
            jitter *= 10.0
            assert jitter <= 1e-2
    alpha = cho_solve(factor, y - y_mean)
    k_star = amplitude * matern25(_pairwise(query, x))
    mu = y_mean + k_star @ alpha
    v = cho_solve(factor, k_star.T)
    prior = amplitude * matern25(np.zeros(len(query)))
    var = prior - np.sum(k_star * v.T, axis=1)
    return mu, np.sqrt(np.maximum(var, 0.0))


def _reference_propose(space, history, n_samples, seed, acquisition_function, follow):
    """The reference's picks, following the ids in ``follow`` through ties;
    also returns the candidate count and the number of ties taken."""
    weight = {"EI": 0.2, "PI": 0.2, "UCB": 2.0, "LCB": 2.0}[acquisition_function]
    obs = history_view(space, history).obs
    rng = pyrandom.Random(seed)
    sizes = [len(values) for values in space.active.values()]
    x = normalize([row for _, row in obs], sizes)
    y = np.array([r.fom for r, _ in obs], dtype=float)
    if space.cardinality() <= 20_000:
        rows = list(itertools.product(*(range(m) for m in sizes)))
    else:
        rows = [tuple(rng.randrange(m) for m in sizes) for _ in range(2_000)]
    evaluated = {r.design.id for r in history.records}
    rows = [row for row in rows if materialize(space, row).id not in evaluated]
    ids = [materialize(space, row).id for row in rows]
    cand = normalize(rows, sizes)
    picks, values, ties = [], [], 0
    remaining = list(range(len(rows)))
    x_fit, y_fit = x, y
    for k in range(min(n_samples, len(rows))):
        mu, sigma = _reference_posterior(x_fit, y_fit, cand[remaining])
        scores = acquisition(acquisition_function, mu, sigma, float(np.max(y_fit)), weight)
        local_best = int(np.argmax(scores))
        local = local_best
        if k < len(follow) and ids[remaining[local_best]] != follow[k]:
            # random draws may repeat a row: follow the first remaining copy
            local = next(j for j, i in enumerate(remaining) if ids[i] == follow[k])
            gap = abs(scores[local] - scores[local_best])
            assert gap <= ACQ_RTOL * abs(scores[local_best]), (k, scores[local], scores[local_best])
            ties += 1
        chosen = remaining.pop(local)
        picks.append(chosen)
        values.append(float(scores[local]))
        if not remaining:
            break
        x_fit = np.vstack([x_fit, cand[chosen : chosen + 1]])
        y_fit = np.append(y_fit, float(np.max(y)))
    return [ids[i] for i in picks], values, len(rows), ties


def _mixed_history(space, rows, fixed_off):
    """Valid records at rows, two failed records, two records outside the space."""
    grid = space.full_grid
    hist = History()

    def add(assignment, fom, status="ok"):
        hist.append(
            EvaluatedDesign(
                design=design_from(assignment),
                raw_metrics={},
                normalized={},
                fom=fom,
                feasible=False,
                sim_status=status,
                iteration=1,
                method="lhs",
                eval_index=hist.next_eval_index(),
                wall_time=0.0,
            )
        )

    rng = np.random.default_rng(len(rows))
    for row in rows:
        add(materialize(space, row).assignment, float(rng.uniform(0.1, 1.0)))
    for row in rows[:2]:
        shifted = [(i + 1) % len(v) for i, v in zip(row, space.active.values())]
        add(materialize(space, shifted).assignment, None, status="sim_failed")
    inside = materialize(space, rows[0]).assignment
    first = next(iter(space.active))
    add({**inside, first: grid[first][-1]}, 2.0)  # value outside the active list
    add({**inside, **fixed_off}, 3.0)  # fixed pin moved
    return hist


def _narrowed_space(n_vars, n_active_values):
    names = [f"W_{k}" for k in range(n_vars)]
    return SearchSpace(
        active={v: GRID[:n_active_values] for v in names[:-1]},
        fixed={names[-1]: GRID[4]},
        full_grid={v: GRID for v in names},
        generation=1,
    ), {names[-1]: GRID[5]}


@pytest.mark.parametrize("acquisition_function", ["EI", "PI", "UCB", "LCB"])
@pytest.mark.parametrize(
    "shape",
    [
        (3, 7, 6, 0),  # 49 enumerated candidates
        (3, 3, 6, 0),  # 9 candidates: a batch that exhausts the grid
        (7, 6, 5, 3),  # 6 active x 6 values > 20000: 2000 random draws
        (5, 9, 40, 1),  # 9^4 = 6561 candidates, the grid bo_grid searches
        (5, 9, 60, 2),
        (9, 4, 40, 3),  # 8 active x 4 values > 20000: 2000 random draws
    ],
)
def test_proposals_match_the_per_pick_reference(acquisition_function, shape):
    _assert_the_reference_picks(acquisition_function, shape)


@pytest.mark.parametrize("acquisition_function", ["EI", "PI", "UCB"])
def test_an_eight_axis_grid_matches_the_per_pick_reference(acquisition_function):
    # 3^8 = 6561 candidates: past 7 axes np.sum would add the squares
    # pairwise, and cdist and the offset table still add them in order.
    # LCB is left out: on this history, symmetric across the axes, its
    # fifth pick ties mirror-image candidates, and TIE_PICKS allows none
    _assert_the_reference_picks(acquisition_function, (9, 3, 40, 3))


def _assert_the_reference_picks(acquisition_function, shape):
    n_vars, n_values, n_obs, seed = shape
    space, fixed_off = _narrowed_space(n_vars, n_values)
    # history rows come from the seed's own candidate draws, so that the
    # random path has evaluated candidates to drop too
    rows = (grid_rows(space.sizes()) if space.cardinality() <= ENUMERATION_LIMIT
            else candidate_rows(space, pyrandom.Random(seed)))
    rows = [tuple(r) for r in rows.tolist()]
    picked = [rows[k] for k in range(0, len(rows), max(1, len(rows) // n_obs))][:n_obs]
    hist = _mixed_history(space, picked, fixed_off)
    n_samples = 5

    got = propose_bayesian(space, hist, n_samples, seed, acquisition_function=acquisition_function)
    got_ids = [d.id for d in got.designs]
    want_ids, want_values, want_n, ties = _reference_propose(
        space, hist, n_samples, seed, acquisition_function, got_ids
    )
    assert got_ids == want_ids
    assert ties <= TIE_PICKS.get((shape, acquisition_function), 0)
    np.testing.assert_allclose(got.diagnostics["acquisition_values"], want_values,
                               rtol=ACQ_RTOL, atol=ACQ_ATOL)
    assert got.diagnostics["n_candidates"] == want_n
    assert not {r.design.id for r in hist.records} & set(want_ids)


@pytest.mark.parametrize("acquisition_function", ["EI", "PI", "UCB", "LCB"])
def test_a_repeated_incumbent_matches_the_per_pick_reference(acquisition_function):
    # GA elitism resubmits its incumbent every generation, and each cached
    # copy is a record of its own: 20 coincident training rows
    space, fixed_off = _narrowed_space(5, 9)
    rows = [tuple(r) for r in grid_rows(space.sizes()).tolist()]
    hist = _mixed_history(space, rows[::250][:25], fixed_off)
    incumbent = max(hist.valid_records(), key=lambda r: r.fom)
    for _ in range(20):
        hist.append(dataclasses.replace(incumbent, eval_index=hist.next_eval_index(),
                                        cached=True))
    got = propose_bayesian(space, hist, 5, 4, acquisition_function=acquisition_function)
    got_ids = [d.id for d in got.designs]
    want_ids, want_values, _, ties = _reference_propose(
        space, hist, 5, 4, acquisition_function, got_ids)
    assert (got_ids, ties) == (want_ids, 0)
    np.testing.assert_allclose(got.diagnostics["acquisition_values"], want_values,
                               rtol=ACQ_RTOL, atol=ACQ_ATOL)


def test_predict_matches_the_two_solve_form():
    rng = np.random.default_rng(11)
    sizes = (17, 17, 17, 17)
    rows = _grid_rows(17, 4, rng, 40)
    x = normalize(rows, sizes)
    y = np.sin(3 * x[:, 0]) + x[:, 1] ** 2 - 0.5 * x[:, 2] * x[:, 3]
    query = rng.integers(0, 17, size=(500, 4))
    gp = GaussianProcess(sizes, rows).fit(rows, y)
    want_mu, want_sigma = _reference_posterior(x, y, normalize(query, sizes))
    before = query.copy()
    for layout in (query, np.asfortranarray(query), query[:1]):
        mu, sigma = gp.predict(layout)
        np.testing.assert_allclose(mu, want_mu[: len(layout)], rtol=ACQ_RTOL, atol=ACQ_ATOL)
        np.testing.assert_allclose(sigma, want_sigma[: len(layout)], rtol=ACQ_RTOL,
                                   atol=ACQ_ATOL)
    np.testing.assert_array_equal(query, before)  # the caller's points are left as they are


@pytest.mark.parametrize("bad", [[[1], [6]], [[-1]], [[1, 0]]])
def test_predict_rejects_a_query_point_off_the_grid(bad):
    gp = GaussianProcess((6,)).fit([[0], [1], [2]], np.array([0.0, 0.5, 0.3]))
    with pytest.raises(ValueError):
        gp.predict(np.array(bad))


# ------------------------------------------------------ rank-one appends


def _grid_rows(n_values, dims, rng, k):
    """k distinct index vectors of a n_values^dims grid."""
    flat = rng.choice(n_values**dims, size=k, replace=False)
    return np.array(np.unravel_index(flat, (n_values,) * dims)).T


@pytest.mark.parametrize("whole_grid", [True, False])
def test_rank_one_appends_equal_a_fresh_factor_and_solve(whole_grid):
    rng = np.random.default_rng(23)
    sizes = (9, 9, 9)
    points = _grid_rows(9, 3, rng, 330)
    x, others = points[:10], points[10:]
    y = rng.uniform(0.1, 1.0, size=10)
    added = rng.choice(len(others), size=60, replace=False)
    if whole_grid:
        gp, query = GaussianProcess(sizes), grid_rows(sizes)
        positions = np.ravel_multi_index(others[added].T, sizes)
    else:
        gp, query, positions = GaussianProcess(sizes, others), others, added
    gp.fit(x, y)
    # past ROOM training points, so the buffers grow too
    for i in positions:
        gp.add(int(i), 0.9)
    assert len(gp._chol) > ROOM
    fit_rows = np.vstack([x, others[added]])
    fit_x, query = normalize(fit_rows, sizes), normalize(query, sizes)
    r = matern25(_pairwise(fit_x, fit_x)) + 1e-6 * np.eye(len(fit_x))
    want_l = np.tril(cho_factor(r, lower=True)[0])
    want_w = dtrsm(1.0, want_l, matern25(_pairwise(query, fit_x)), side=1, lower=1, trans_a=1)
    assert gp.fitted_jitter == 1e-6
    np.testing.assert_allclose(gp.factor, want_l, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gp.block, want_w, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(gp.rows, fit_rows)
    # and the moments are a fresh fit's
    want_mu, want_sigma = _reference_posterior(fit_x, np.append(y, [0.9] * 60), query)
    mu, sigma = gp.moments()
    np.testing.assert_allclose(mu, want_mu, rtol=ACQ_RTOL, atol=ACQ_ATOL)
    np.testing.assert_allclose(sigma, want_sigma, rtol=ACQ_RTOL, atol=ACQ_ATOL)


def _losing_pivots(monkeypatch, lost):
    """Make an append lose its pivot where ``lost(row, jitter)`` holds;
    returns the list of (index vector, jitter) of every append tried
    from here on."""
    tried = []
    append = GaussianProcess._append

    def lossy(gp, row):
        tried.append((tuple(row.tolist()), gp.fitted_jitter))
        return not lost(row, gp.fitted_jitter) and append(gp, row)

    monkeypatch.setattr(GaussianProcess, "_append", lossy)
    return tried


# the jitters a factor tries, from the base one up to the largest
JITTERS = [1e-6]
while len(JITTERS) < 5:
    JITTERS.append(JITTERS[-1] * 10.0)


def _lie_by_fit(gp, x, y, lies, k):
    """Fit gp to x plus the first k lies, each with target 0.9: a warm fit
    that keeps the points already factored."""
    return gp.fit(np.vstack([x, lies[:k]]), np.append(y, [0.9] * k))


def _lie_by_add(gp, x, y, lies, k):
    """Add the k-th lie, the last of the first k, with target 0.9; on a
    one-axis grid a point's position is its index."""
    return gp.add(int(lies[k - 1][0]), 0.9)


# a lie may reach the factor as a warm fit or as one add; a lost pivot
# escalates the jitter on either path
LIES = [_lie_by_fit, _lie_by_add]
X1, Y1 = np.array([[0], [4], [8]]), np.array([0.2, 0.9, 0.4])


@pytest.mark.parametrize("lie", LIES)
def test_a_lost_pivot_escalates_the_jitter_in_the_middle_of_a_batch(monkeypatch, lie):
    # the second lie loses its pivot at the base jitter
    tried = _losing_pivots(monkeypatch, lambda row, jitter: row[0] == 6 and jitter == JITTERS[0])
    lies = np.array([[2], [6], [3]])
    gp = GaussianProcess((9,)).fit(X1, Y1)
    lie(gp, X1, Y1, lies, 1)  # a new point appends at the base jitter
    assert gp.fitted_jitter == JITTERS[0]
    assert tried[3:] == [((2,), JITTERS[0])]
    del tried[:]
    lie(gp, X1, Y1, lies, 2)  # the factor starts over from empty at the next jitter
    assert gp.fitted_jitter == JITTERS[1]
    assert tried == [((6,), JITTERS[0])] + [((k,), JITTERS[1]) for k in (0, 4, 8, 2, 6)]
    del tried[:]
    lie(gp, X1, Y1, lies, 3)  # appends resume at the escalated jitter
    assert (tried, gp.fitted_jitter) == ([((3,), JITTERS[1])], JITTERS[1])
    fit_x, fit_y = np.vstack([X1, lies]), np.append(Y1, [0.9] * 3)
    want_mu, want_sigma = _reference_posterior(normalize(fit_x, (9,)), fit_y,
                                               normalize(grid_rows((9,)), (9,)), JITTERS[1])
    mu, sigma = gp.moments()
    np.testing.assert_allclose(mu, want_mu, rtol=ACQ_RTOL, atol=ACQ_ATOL)
    np.testing.assert_allclose(sigma, want_sigma, rtol=ACQ_RTOL, atol=ACQ_ATOL)
    # the factor and block are a cold fit's, bit for bit, and so are the
    # running sums after a warm fit, which forms them as a cold fit does
    cold = GaussianProcess((9,)).fit(fit_x, fit_y)
    assert cold.fitted_jitter == gp.fitted_jitter
    assert np.array_equal(gp.factor, cold.factor) and np.array_equal(gp.block, cold.block)
    if lie is _lie_by_fit:
        assert np.array_equal(gp._sums, cold._sums)


@pytest.mark.parametrize("lie", LIES)
def test_a_lost_pivot_past_the_largest_jitter_is_a_singular_kernel(monkeypatch, lie):
    # 2 loses its pivot below the largest jitter, 6 at every jitter
    tried = _losing_pivots(monkeypatch, lambda row, jitter: row[0] == 6
                           or (row[0] == 2 and jitter < JITTERS[-1]))
    lies = np.array([[2], [6]])
    gp = GaussianProcess((9,)).fit(X1, Y1)
    lie(gp, X1, Y1, lies, 1)
    assert gp.fitted_jitter == JITTERS[-1]
    assert [jitter for row, jitter in tried if row == (2,)] == JITTERS
    with pytest.raises(SingularKernel):
        lie(gp, X1, Y1, lies, 2)


def test_a_warm_fit_keeps_the_prefix_and_equals_a_cold_fit_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(29)
    sizes = (9, 9, 9)
    points = _grid_rows(9, 3, rng, 120)
    query = points[20:]
    y = rng.uniform(0.1, 1.0, size=20)
    gp = GaussianProcess(sizes, query).fit(points[:12], y[:12])
    tried = _losing_pivots(monkeypatch, lambda row, jitter: False)
    # drop the last four points, append eight others, then drop to a prefix
    for n, source, appended in ((16, np.vstack([points[:8], points[12:20]]), 8),
                                (5, points[:5], 0)):
        del tried[:]
        gp.fit(source[:n], y[:n])
        assert len(tried) == appended
        want = GaussianProcess(sizes, query).fit(source[:n], y[:n])
        for got, expected in ((gp.factor, want.factor), (gp.block, want.block),
                              (gp.rows, want.rows), (gp.moments(), want.moments())):
            assert np.array_equal(got, expected)


# ------------------------------------------------- the grid's offset table


@pytest.mark.parametrize("sizes", [(9,) * 4, (5,) * 4, (9, 9), (3, 7, 6, 2), (1, 5, 9),
                                   (4, 6, 7), (2,) * 8, (3,) * 8, (2,) * 10])
def test_the_offset_table_is_the_one_cdist_gives_bit_for_bit(sizes):
    # the table sums the squared coordinates in numpy, axis by axis
    coordinates = normalize(grid_rows(sizes), sizes)
    half = matern25(cdist(np.zeros((1, len(sizes))), coordinates))[0]
    want = half.reshape(sizes)[np.ix_(*(np.abs(np.arange(1 - m, m)) for m in sizes))]
    assert np.array_equal(offset_table(sizes), want)


@pytest.mark.parametrize("sizes", [(1, 2, 3), (9, 1, 5, 2), (5, 9), (4, 6), (7, 3, 4),
                                   (6, 5, 7, 2)])
def test_each_window_of_the_offset_table_is_the_points_correlation_over_the_grid(sizes):
    gp = GaussianProcess(sizes)
    # the grid's points are the proposer's candidates, in its order
    rows = grid_rows(sizes)
    for i, row in enumerate(rows):
        window = gp._window(row)
        assert (window.shape, np.ravel_multi_index(row, sizes)) == (sizes, i)
        assert np.array_equal(np.unravel_index(i, sizes), row)
        assert np.array_equal(window.ravel(), kernel(rows - row, sizes))


@pytest.mark.parametrize("sizes", [(8,) * 4, (7, 3, 4, 6)])
def test_a_gp_over_given_points_is_the_grid_gp_at_those_points_bit_for_bit(sizes):
    # 2000 draws, repeats included, as the random path takes them; the
    # axes' m - 1 are no powers of two, so no coordinate is exact
    rng = np.random.default_rng(31)
    points = np.array([[rng.integers(m) for m in sizes] for _ in range(2000)])
    picked = rng.choice(len(points), size=34, replace=False)
    x, y = points[picked[:30]], rng.uniform(0.1, 1.0, size=30)
    given_points, grid = GaussianProcess(sizes, points), GaussianProcess(sizes)
    given_points.fit(x, y)
    grid.fit(x, y)
    for i in picked[30:]:  # and four lies
        given_points.add(int(i), 0.9)
        grid.add(int(np.ravel_multi_index(points[i], sizes)), 0.9)
    flat = np.ravel_multi_index(points.T, sizes)
    assert np.array_equal(given_points.factor, grid.factor)
    assert np.array_equal(given_points.block, grid.block[flat])
    for got, want in zip(given_points.moments(), grid.moments()):
        assert np.array_equal(got, want[flat])


@pytest.mark.parametrize("whole_grid", [True, False])
def test_a_gp_refuses_an_index_off_its_grid(whole_grid):
    sizes = (5, 3)
    gp = GaussianProcess(sizes, None if whole_grid else grid_rows(sizes))
    corners = np.array([[0, 0], [4, 2]])
    # past the last value, on either axis, and before the first
    for row in ([5, 0], [0, 3], [-1, 0]):
        with pytest.raises(ValueError):
            gp.fit(np.vstack([corners, row]), np.zeros(3))
    for rows in ([[0, 0, 0]], [[0]], [0, 0]):  # an index too many or too few
        with pytest.raises(ValueError):
            gp.fit(rows, np.zeros(1))
    gp.fit(corners, np.array([0.0, 1.0]))
    assert gp.rows.tolist() == corners.tolist()


# ------------------------------------------- a carried GP is a fresh one
#
# The GP of the enumerated grid is carried in the history's view from
# batch to batch. Whatever the history holds, a proposal from the view
# must be the one a fresh history holding the same records gives.

WIDE = SearchSpace(
    active={"W_a": GRID[:5], "W_b": GRID[2:7], "W_c": GRID[4:9]},
    fixed={},
    full_grid={"W_a": GRID, "W_b": GRID, "W_c": GRID},
)
# a narrow and a fix of W_c: some of WIDE's records fall outside
NARROW = SearchSpace(
    active={"W_a": GRID[1:4], "W_b": GRID[2:7]},
    fixed={"W_c": GRID[6]},
    full_grid=WIDE.full_grid,
    generation=1,
)


def _record(hist, assignment, status="ok"):
    ok = status == "ok"
    hist.append(EvaluatedDesign(
        design=design_from(assignment), raw_metrics={}, normalized={},
        fom=round(assignment["W_a"] * assignment["W_b"] - (assignment["W_c"] - 1.6) ** 2, 6)
        if ok else None,
        feasible=False, sim_status=status, iteration=len(hist), method="bayesian",
        eval_index=hist.next_eval_index(), wall_time=0.0,
    ))


def _outcome(space, hist, n_samples, seed, acquisition_function):
    """The proposal, or None on too short a history, and the view's GP as arrays."""
    try:
        proposal = propose_bayesian(space, hist, n_samples, seed,
                                    acquisition_function=acquisition_function)
    except InsufficientHistory:
        return None, []
    if not proposal.designs:  # no candidate left: the batch touches no GP
        return proposal, []
    gp = history_view(space, hist).gp
    return proposal, [gp.factor, gp.block, gp.rows, gp.y, gp._ss, gp._sums, gp.fitted_jitter,
                      *gp.moments()]


def _assert_warm_is_cold(space, hist, n_samples, seed, acquisition_function="EI"):
    """Propose from hist, which may carry a view, and from a fresh history
    holding the same records; both must agree bit for bit. Returns the
    designs proposed."""
    cold = History()
    cold.append_batch(hist.records)
    got, got_state = _outcome(space, hist, n_samples, seed, acquisition_function)
    want, want_state = _outcome(space, cold, n_samples, seed, acquisition_function)
    if want is None:
        assert got is None
        return []
    assert [d.id for d in got.designs] == [d.id for d in want.designs]
    assert got.diagnostics == want.diagnostics
    assert len(got_state) == len(want_state)
    for a, b in zip(got_state, want_state):
        assert np.array_equal(a, b)
    return got.designs


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_a_carried_gp_proposes_what_a_fresh_history_does(data):
    draw = data.draw
    space = WIDE
    hist = History()

    def design_in(space):
        return materialize(space, [draw(st.integers(0, m - 1)) for m in space.sizes()])

    for _ in range(draw(st.integers(5, 9))):
        _record(hist, design_in(space).assignment)
    for _ in range(draw(st.integers(2, 6))):
        if draw(st.integers(0, 4)) == 0:
            space = NARROW if space is WIDE else WIDE
        picks = _assert_warm_is_cold(space, hist, draw(st.integers(1, 5)),
                                     draw(st.integers(0, 3)), draw(st.sampled_from(ACQUISITIONS)))
        # the batch comes back: its records follow, reorder or drop the lies
        mode, returned = draw(st.sampled_from(["follow", "reorder", "drop"])), picks
        if mode == "reorder":
            returned = draw(st.permutations(picks))
        elif mode == "drop" and picks:
            returned = draw(st.lists(st.sampled_from(picks), unique_by=lambda d: d.id))
        for design in returned:
            _record(hist, design.assignment, draw(st.sampled_from(["ok", "ok", "ok", "sim_failed"])))
        # and records that are not the batch's
        for extra in draw(st.lists(st.sampled_from(["incumbent", "outside", "new", "failed"]),
                                   max_size=3)):
            if extra == "incumbent" and hist.valid_records():
                best = max(hist.valid_records(), key=lambda r: r.fom)
                hist.append(dataclasses.replace(best, eval_index=hist.next_eval_index(),
                                                cached=True))
            elif extra == "outside":
                _record(hist, {**design_in(space).assignment, "W_a": GRID[8]})
            else:
                _record(hist, design_in(space).assignment,
                        "ok" if extra in ("new", "incumbent") else "sim_failed")


@pytest.mark.parametrize("returned", [[1, 2], [0, 1, 2, 3]])
def test_a_lie_that_lost_its_pivot_does_not_leak_into_the_real_factor(monkeypatch, returned):
    # the second batch's first pick, its first lie, loses its pivot at the
    # base jitter, so that batch's factor escalates; the real records that
    # follow either drop that lie or bring it back
    hist = History()
    for row in ([0, 0, 0], [4, 4, 4], [2, 1, 3], [1, 3, 0], [3, 0, 2], [0, 4, 1]):
        _record(hist, materialize(WIDE, row).assignment)
    for design in _assert_warm_is_cold(WIDE, hist, 4, 0):
        _record(hist, design.assignment)
    probe = History()
    probe.append_batch(hist.records)
    lie = propose_bayesian(WIDE, probe, 4, seed=1).designs[0]
    row = index_rows(WIDE, [lie])[0]
    _losing_pivots(monkeypatch, lambda r, jitter: np.array_equal(r, row) and jitter == 1e-6)
    escalated = 1e-6 * 10.0
    second = _assert_warm_is_cold(WIDE, hist, 4, 1)
    assert second[0].id == lie.id
    assert history_view(WIDE, hist).gp.fitted_jitter == escalated
    for i in returned:
        _record(hist, second[i].assignment)
    _assert_warm_is_cold(WIDE, hist, 4, 2)
    assert history_view(WIDE, hist).gp.fitted_jitter == (escalated if 0 in returned else 1e-6)


# ------------------------------------------------------ what a pick costs


def _counted(monkeypatch, owner, name):
    """Count the calls of owner.name from here on."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_warm_batch_computes_no_distance_and_solves_the_targets_once(monkeypatch):
    # the 9^4 grid bo_grid searches; the second batch fits the carried
    # GP to its five new records and picks five, through four lies
    space, fixed_off = _narrowed_space(5, 9)
    rows = [tuple(r) for r in grid_rows(space.sizes()).tolist()]
    hist = _mixed_history(space, rows[::300][:20], fixed_off)
    for k, design in enumerate(propose_bayesian(space, hist, 5, seed=0).designs):
        hist.append(dataclasses.replace(hist.records[0], design=design, fom=0.5 + 0.01 * k,
                                        eval_index=hist.next_eval_index()))
    kernels = _counted(monkeypatch, gp_module, "kernel")
    solves = _counted(monkeypatch, gp_module, "dtrsm")
    fits = _counted(monkeypatch, GaussianProcess, "fit")
    appends = _counted(monkeypatch, GaussianProcess, "_append")
    proposal = propose_bayesian(space, hist, 5, seed=1)
    assert len(proposal.designs) == 5
    # the records of the first four picks repeat its lies, so one append
    # for the fifth pick's record, and one per lie
    assert (kernels, solves, fits, len(appends)) == ([], ["dtrsm"], ["fit"], 5)


def test_the_posterior_moments_are_those_of_np_mean_and_np_var_bit_for_bit(monkeypatch):
    # _moments sums the targets with np.add.reduce; at every pick of a
    # batch on the bo_grid grid, lies included, it must give what it gave
    # through np.mean and np.var
    moments = GaussianProcess._moments
    targets = []

    def checked(gp, sums, ss):
        mu, sigma = moments(gp, sums, ss)
        mean, variance = float(np.mean(gp.y)), float(np.var(gp.y))
        amplitude = variance if variance > 0 else 1.0
        assert np.array_equal(mu, mean + (sums[:, 0] - mean * sums[:, 1]))
        assert np.array_equal(sigma, np.sqrt(np.maximum(amplitude * (1.0 - ss), 0.0)))
        targets.append(len(gp.y))
        return mu, sigma

    monkeypatch.setattr(GaussianProcess, "_moments", checked)
    space, fixed_off = _narrowed_space(5, 9)
    rows = [tuple(r) for r in grid_rows(space.sizes()).tolist()]
    hist = _mixed_history(space, rows[::300][:20], fixed_off)
    n = len(history_view(space, hist).obs)
    assert len(propose_bayesian(space, hist, 5, seed=0).designs) == 5
    assert targets == [n, n + 1, n + 2, n + 3, n + 4]


def test_the_enumerated_grid_is_listed_only_for_the_offset_table(monkeypatch):
    # a cold batch and a warm one on the 9^4 grid bo_grid searches: the
    # candidates are flat indices, and a pick's vector is ``GaussianProcess.row``
    space, fixed_off = _narrowed_space(5, 9)
    hist = _mixed_history(space, [tuple(r) for r in grid_rows(space.sizes())[::300][:20]],
                          fixed_off)
    callers, listed = [], gp_module.grid_rows

    def counted(sizes):
        callers.append(sys._getframe(1).f_code.co_name)
        return listed(sizes)

    # wherever the name is bound, so that a proposer importing it is counted too
    for module in (gp_module, bayesian_module):
        monkeypatch.setattr(module, "grid_rows", counted, raising=False)
    for seed in (0, 1):
        proposal = propose_bayesian(space, hist, 5, seed=seed)
        assert proposal.diagnostics["n_candidates"] == 9**4 - len(history_view(space, hist).seen)
        for k, design in enumerate(proposal.designs):
            hist.append(dataclasses.replace(hist.records[0], design=design, fom=0.5 + 0.01 * k,
                                            eval_index=hist.next_eval_index()))
    assert callers == ["offset_table"]


def test_the_random_candidate_path_builds_no_table_and_lies_by_add(monkeypatch):
    # 9^5 = 59049 points, past ENUMERATION_LIMIT: 2000 uniform draws per seed
    space, fixed_off = _narrowed_space(6, 9)
    rows = [tuple(r) for r in candidate_rows(space, pyrandom.Random(7)).tolist()]
    hist = _mixed_history(space, rows[::100][:15], fixed_off)
    tables = _counted(monkeypatch, gp_module, "offset_table")
    lies = _counted(monkeypatch, GaussianProcess, "add")
    proposal = propose_bayesian(space, hist, 6, seed=7)
    ids = [d.id for d in proposal.designs]
    assert (tables, len(lies), len(set(ids))) == ([], 5, 6)
    assert not set(ids) & {r.design.id for r in hist.records}
    for design in proposal.designs:
        assert all(design.assignment[v] in values for v, values in space.active.items())
        assert all(design.assignment[v] == value for v, value in space.fixed.items())
    again = History()
    again.append_batch(hist.records)
    assert [d.id for d in propose_bayesian(space, again, 6, seed=7).designs] == ids
    assert history_view(space, hist).gp is None  # the draws are the seed's: nothing to carry
