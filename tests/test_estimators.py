"""Estimators against sufficient-statistic closed forms."""

import math

import numpy as np
import pytest
import scipy.stats as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from modev import (
    BoundaryWarning,
    Box,
    DomainError,
    GridError,
    LossSpec,
    PriorSpec,
    RegionSpec,
    ResolutionWarning,
    SampleBatch,
    bayes_estimate,
    default_posterior_box,
    draw_sample,
    get_family,
    mle,
    posterior_grid,
    posterior_mass,
)
from modev import test_statistics as stat_triple


def _manual(obs, family, theta):
    obs = np.asarray(obs, dtype=float)
    return SampleBatch(
        family=family,
        theta_gen=np.atleast_1d(np.asarray(theta, dtype=float)),
        n=obs.shape[0],
        observations=obs,
        seed=0,
    )


# ---------------------------------------------------------------------------
# maximum likelihood
# ---------------------------------------------------------------------------


def test_mle_worked_values():
    r = mle(_manual([-1.0, 1.0, 3.0], "gaussian", 0.0), get_family("gaussian"))
    assert r.shape == (1,)
    assert float(r[0]) == pytest.approx(1.0, abs=1e-8)
    r = mle(_manual([1.0, 3.0], "exponential", 1.0), get_family("exponential"))
    assert float(r[0]) == pytest.approx(0.5, abs=1e-8)
    r = mle(_manual([1.0, 1.0, 0.0, 1.0], "bernoulli", 0.5), get_family("bernoulli"))
    assert float(r[0]) == pytest.approx(0.75, abs=1e-8)
    r = mle(_manual([0.0, 2.0, 5.0], "laplace", 0.0), get_family("laplace"))
    assert float(r[0]) == pytest.approx(2.0, abs=1e-8)


@pytest.mark.parametrize("family", ("laplace", "gaussian"))
def test_mle_and_test_statistics_reject_nan_samples(family):
    # a selection median would order NaN as a number and return a finite estimate
    fam = get_family(family)
    sample = _manual([0.2, np.nan, -1.0, 0.7], family, 0.0)
    with pytest.raises(DomainError, match="support"):
        mle(sample, fam)
    with pytest.raises(DomainError, match="support"):
        stat_triple(sample, fam, 0.0)


def test_mle_planar_gaussian_is_the_mean_vector():
    fam = get_family("gaussian2")
    sample = draw_sample(fam, np.array([0.4, -0.6]), 50, seed=3)
    r = mle(sample, fam)
    np.testing.assert_allclose(r, sample.observations.mean(axis=0), atol=1e-8)


@pytest.mark.parametrize("family", ("gaussian", "exponential", "bernoulli", "laplace"))
def test_mle_matches_sufficient_statistic(family):
    fam = get_family(family)
    theta = {"gaussian": 0.3, "exponential": 1.2, "bernoulli": 0.4, "laplace": 0.3}[family]
    for seed in range(200):
        # odd n keeps the laplace MLE (sample median) unique
        sample = draw_sample(fam, theta, 41, seed=seed)
        obs = sample.observations
        if family == "gaussian":
            want = float(np.mean(obs))
        elif family == "exponential":
            want = 1.0 / float(np.mean(obs))
        elif family == "bernoulli":
            want = float(np.mean(obs))
        else:
            want = float(np.median(obs))
        assert float(mle(sample, fam)[0]) == pytest.approx(want, abs=1e-8)


def test_mle_permutation_invariant():
    fam = get_family("gaussian")
    n = 33
    sample = draw_sample(fam, 0.0, n, seed=8)
    rng = np.random.default_rng(0)
    perm = rng.permutation(n)
    shuffled = _manual(sample.observations[perm], "gaussian", 0.0)
    a = float(mle(sample, fam)[0])
    b = float(mle(shuffled, fam)[0])
    assert a == pytest.approx(b, abs=1e-12)


# ---------------------------------------------------------------------------
# posterior grids and Bayes estimates
# ---------------------------------------------------------------------------


def conjugate_fixture():
    # N(0,1) prior, unit-variance likelihood, n = 4, xbar = 1:
    # posterior is N(0.8, 0.2)
    fam = get_family("gaussian")
    sample = _manual([0.5, 1.5, 0.7, 1.3], "gaussian", 0.0)
    prior = PriorSpec.gaussian(mean=np.zeros(1), sd=1.0)
    box = Box(np.array([-2.0]), np.array([3.0]))
    post = posterior_grid(sample, fam, prior, box, resolution=2001)
    return post


def test_posterior_grid_matches_conjugate_moments():
    post = conjugate_fixture()
    w = np.exp(post.log_weights - post.normalizer)
    w = w / w.sum()
    mean = float(w @ post.nodes[:, 0])
    var = float(w @ (post.nodes[:, 0] - mean) ** 2)
    assert mean == pytest.approx(0.8, abs=1e-6)
    assert var == pytest.approx(0.2, abs=1e-4)


def test_bayes_estimate_squared_loss_is_posterior_mean():
    post = conjugate_fixture()
    est = bayes_estimate(post, LossSpec.power(2.0))
    assert float(est[0]) == pytest.approx(0.8, abs=2.5e-4)


def test_bayes_estimate_absolute_loss_is_posterior_median():
    post = conjugate_fixture()
    est = bayes_estimate(post, LossSpec.power(1.0))
    assert float(est[0]) == pytest.approx(0.8, abs=1e-3)


def test_bayes_estimate_planar():
    fam = get_family("gaussian2")
    sample = draw_sample(fam, np.zeros(2), 16, seed=4)
    xbar = sample.observations.mean(axis=0)
    prior = PriorSpec.flat()
    box = Box(xbar - 1.0, xbar + 1.0)
    post = posterior_grid(sample, fam, prior, box, resolution=256)
    est = bayes_estimate(post, LossSpec.power(2.0))
    np.testing.assert_allclose(est, xbar, atol=1e-3)
    # the spatial median has no closed form on the grid
    with pytest.raises(DomainError):
        bayes_estimate(post, LossSpec.power(1.0))


def test_planar_grid_nodes_are_the_ij_meshgrid_of_the_axes():
    fam = get_family("gaussian2")
    sample = draw_sample(fam, np.zeros(2), 16, seed=4)
    box = Box(np.array([-0.7, 0.2]), np.array([0.9, 1.3]))
    post = posterior_grid(sample, fam, PriorSpec.flat(), box, resolution=64)
    axes = [np.linspace(box.lo[k], box.hi[k], 64) for k in range(2)]
    mesh = np.meshgrid(*axes, indexing="ij")
    want = np.stack([m.ravel() for m in mesh], axis=-1)
    assert post.nodes.flags.c_contiguous
    assert np.array_equal(post.nodes, want)


def test_posterior_mass_flat_prior_tail():
    fam = get_family("gaussian")
    sample = draw_sample(fam, 0.0, 100, seed=21)
    xbar = float(np.mean(sample.observations))
    box = Box(np.array([xbar - 1.0]), np.array([xbar + 1.0]))
    post = posterior_grid(sample, fam, PriorSpec.flat(), box, resolution=4096)
    center = np.array([xbar])
    # flat-prior posterior is N(xbar, 1/n): P(theta - xbar > 0.2) = Phi_bar(2)
    mass = posterior_mass(post, RegionSpec("half_space", d=1, a=np.array([1.0]), c=0.2), center)
    assert mass == pytest.approx(float(sps.norm.sf(2.0)), abs=5e-4)
    # monotone in the threshold, and the whole box carries everything
    lower = posterior_mass(post, RegionSpec("half_space", d=1, a=np.array([1.0]), c=0.3), center)
    assert lower < mass
    whole = posterior_mass(
        post, RegionSpec("box", d=1, lo=np.array([-2.0]), hi=np.array([2.0])), center
    )
    assert whole == pytest.approx(1.0, abs=1e-12)


def test_posterior_mass_warns_on_coarse_grids():
    fam = get_family("gaussian")
    sample = draw_sample(fam, 0.0, 100, seed=21)
    xbar = float(np.mean(sample.observations))
    box = Box(np.array([xbar - 1.0]), np.array([xbar + 1.0]))
    post = posterior_grid(sample, fam, PriorSpec.flat(), box, resolution=64)
    # a boundary through the posterior mode leaves ~25% of the mass on
    # straddling cells of this coarse grid
    with pytest.warns(ResolutionWarning):
        posterior_mass(
            post, RegionSpec("half_space", d=1, a=np.array([1.0]), c=0.0), np.array([xbar])
        )


def test_posterior_grid_validation():
    fam = get_family("gaussian")
    sample = draw_sample(fam, 0.0, 10, seed=0)
    with pytest.raises(GridError):
        posterior_grid(sample, fam, PriorSpec.flat(), Box(np.array([-1.0]), np.array([1.0])), 32)


def test_default_posterior_box_tracks_pilot():
    fam = get_family("gaussian")
    box = default_posterior_box(fam, np.array([0.5]), n=100, u_n=0.1)
    assert box.lo[0] < 0.5 < box.hi[0]
    assert box.hi[0] - box.lo[0] == pytest.approx(2.0 * max(10.0 / 10.0, 0.5))
    # one box per pilot row; a pilot on or past the boundary keeps a sliver inside
    fam = get_family("bernoulli")
    pilots = np.array([[0.5], [1.0], [0.0]])
    rows = default_posterior_box(fam, pilots, n=10**8, u_n=1e-3)
    for pilot, lo, hi in zip(pilots, rows.lo, rows.hi):
        one = default_posterior_box(fam, pilot, n=10**8, u_n=1e-3)
        assert np.array_equal(one.lo, lo) and np.array_equal(one.hi, hi)
        assert fam.theta_domain.lo[0] < lo[0] < hi[0] < fam.theta_domain.hi[0]


# ---------------------------------------------------------------------------
# classical test statistics
# ---------------------------------------------------------------------------


def test_statistics_gaussian_identity():
    fam = get_family("gaussian")
    for seed in range(50):
        sample = draw_sample(fam, 0.1, 64, seed=seed)
        t = stat_triple(sample, fam, 0.1)
        assert abs(t.wald - t.rao) < 1e-10
        assert abs(t.wald - t.lr) < 1e-10


def test_statistics_at_the_boundary_estimate():
    # an all-ones sample has MLE 1, outside the open box (0.01, 0.99): the
    # estimate is not clipped, and the likelihood ratio stays finite
    fam = get_family("bernoulli")
    with pytest.warns(BoundaryWarning):
        t = stat_triple(_manual([1.0, 1.0, 1.0, 1.0], "bernoulli", 0.5), fam, 0.5)
    assert float(t.theta_hat[0]) == 1.0
    assert t.wald == pytest.approx(4.0, abs=1e-12)
    assert t.rao == pytest.approx(4.0, abs=1e-12)
    assert t.lr == pytest.approx(8.0 * math.log(2.0), abs=1e-12)


def test_statistics_bernoulli_worked_values():
    fam = get_family("bernoulli")
    t = stat_triple(_manual([1.0, 1.0, 0.0, 1.0], "bernoulli", 0.5), fam, 0.5)
    assert t.wald == pytest.approx(1.0, abs=1e-10)
    assert t.rao == pytest.approx(1.0, abs=1e-10)
    assert t.lr == pytest.approx(2.0 * (3.0 * math.log(1.5) + math.log(0.5)), abs=1e-8)
    assert float(t.theta_hat[0]) == pytest.approx(0.75, abs=1e-8)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_statistics_nonnegative(seed):
    fam = get_family("exponential")
    sample = draw_sample(fam, 1.0, 30, seed=seed)
    t = stat_triple(sample, fam, 1.0)
    assert t.wald >= 0 and t.rao >= 0 and t.lr >= -1e-12
