"""Family calculus against closed forms the implementation never evaluates."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from modev import (
    DomainError,
    QuadratureError,
    SupportError,
    TruncationPolicy,
    check_dqm,
    check_e,
    check_moment_b,
    draw_sample,
    expect,
    family_names,
    fisher_by_quadrature,
    fisher_information,
    get_family,
    hellinger_affinity,
    hellinger_g,
    integrate_support,
    lan_residual,
    log_density,
    loglr_sum,
    phi_matrix,
    psi_n,
    score,
    sup_lan_residual,
    truncated_score,
    zeta_n,
)
from modev import families
from modev.families import loglik_grid, tensor_rule
from modev.lan import truncated_points

ALL_FAMILIES = ("gaussian", "gaussian2", "bernoulli", "exponential", "laplace")


def theta_for(name):
    # a generic interior point per family
    if name == "gaussian2":
        return np.array([0.3, -0.2])
    if name == "bernoulli":
        return np.array([0.4])
    if name == "exponential":
        return np.array([1.5])
    return np.array([0.3])


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


def test_log_density_worked_values():
    assert log_density(get_family("gaussian"), 0.0, 0.0) == pytest.approx(
        -0.5 * math.log(2 * math.pi), abs=1e-12
    )
    assert log_density(get_family("gaussian"), 2.0, 0.5) == pytest.approx(
        -0.5 * math.log(2 * math.pi) - 1.125, abs=1e-12
    )
    assert log_density(get_family("gaussian2"), np.zeros(2), np.zeros(2)) == pytest.approx(
        -math.log(2 * math.pi), abs=1e-12
    )
    assert log_density(get_family("bernoulli"), 1.0, 0.3) == pytest.approx(math.log(0.3))
    assert log_density(get_family("bernoulli"), 0.0, 0.3) == pytest.approx(math.log(0.7))
    assert log_density(get_family("exponential"), 2.0, 1.5) == pytest.approx(
        math.log(1.5) - 3.0, abs=1e-12
    )
    assert log_density(get_family("laplace"), 2.0, 0.5) == pytest.approx(
        -math.log(2.0) - 1.5, abs=1e-12
    )


def test_log_density_rejects_points_outside_support():
    with pytest.raises(SupportError):
        log_density(get_family("bernoulli"), 0.5, 0.3)
    with pytest.raises(SupportError):
        log_density(get_family("exponential"), -1.0, 1.0)


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_density_normalizes_to_one(name):
    fam = get_family(name)
    assert expect(fam, theta_for(name), lambda x: 1.0) == pytest.approx(1.0, abs=1e-8)


def test_planar_density_normalization_follows_theta():
    # the window is centred at theta, so the mass near the domain edge is kept
    # (a window centred at 0 drops 2 sf(4.5) = 6.8e-6 of it)
    fam = get_family("gaussian2")
    assert abs(expect(fam, [9.5, 9.5], lambda x: 1.0) - 1.0) <= 1e-12


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_location_flag_is_shift_invariance(name):
    # location families satisfy log f(x + s, theta + s) = log f(x, theta)
    fam = get_family(name)
    rng = np.random.default_rng(4)
    theta = theta_for(name)
    s = rng.uniform(0.05, 0.3, fam.d)
    x = np.array([0.0, 1.0]) if fam.support.kind == "binary" else rng.uniform(0.2, 2.0, 5)
    x = x[:, None] + theta - 0.1 if fam.obs_dim == 2 else x
    got = fam.log_density(x + s if fam.obs_dim == 2 else x + s[0], theta + s)
    invariant = bool(np.all(np.abs(got - fam.log_density(x, theta)) <= 1e-12))
    assert fam.location == invariant


def test_family_registry():
    assert set(family_names()) == set(ALL_FAMILIES)
    with pytest.raises(DomainError):
        get_family("cauchy")
    with pytest.raises(DomainError):
        score(get_family("bernoulli"), 1.5, [1.0])


# each entry with its length-1 displacements tau, u, v or b
_DISPLACEMENT_CALLS = {
    "hellinger_affinity": lambda fam, t0, s, p: hellinger_affinity(fam, t0, 0.5),
    "hellinger_g": lambda fam, t0, s, p: hellinger_g(fam, t0, [0.5], s.observations),
    "loglr_sum": lambda fam, t0, s, p: loglr_sum(fam, s, t0, t0, [0.1], 0.1),
    "lan_residual": lambda fam, t0, s, p: lan_residual(fam, s, t0, t0, [0.1], p),
    "zeta_n": lambda fam, t0, s, p: zeta_n(fam, s, t0, p, [0.1]),
    "sup_lan_residual": lambda fam, t0, s, p: sup_lan_residual(
        fam, s, t0, [0.5], 1.0, 0.1, p, 0.005
    ),
    "check_moment_b": lambda fam, t0, s, p: check_moment_b(fam, t0, 0.1, 0.5, 2.0, [[0.05]]),
    "check_dqm": lambda fam, t0, s, p: check_dqm(fam, t0, [[1e-3], [1e-2], [1e-1]]),
    "check_e": lambda fam, t0, s, p: check_e(fam, t0, 0.5, 3.0, 3.0, [([0.0], [0.1])]),
}


@pytest.mark.parametrize("entry", sorted(_DISPLACEMENT_CALLS))
def test_displacements_of_the_wrong_length_raise(entry):
    # a length-1 displacement is not broadcast over the plane's two axes, and
    # stays a 1-d family's own
    call = _DISPLACEMENT_CALLS[entry]
    for name in ("gaussian", "gaussian2"):
        fam = get_family(name)
        theta0 = np.zeros(fam.d)
        sample = draw_sample(fam, theta0, 20, seed=1)
        policy = TruncationPolicy(0.5, 0.1)
        if fam.d == 1:
            call(fam, theta0, sample, policy)
        else:
            with pytest.raises(DomainError, match="has dimension 1, family gaussian2 needs 2"):
                call(fam, theta0, sample, policy)


# each entry with a length-1 theta0, which is not broadcast over the plane's
# two axes
_THETA0_CALLS = {
    "loglr_sum": lambda fam, s, p: loglr_sum(fam, s, [0.0], [0, 0], [0.1, 0], 0.2),
    "lan_residual": lambda fam, s, p: lan_residual(fam, s, [0.0], [0, 0], [0.1, 0], p),
    "zeta_n": lambda fam, s, p: zeta_n(fam, s, [0.0], p, [0.1, 0]),
    "psi_n": lambda fam, s, p: psi_n(fam, s, [0.0], p),
    "sup_lan_residual": lambda fam, s, p: sup_lan_residual(
        fam, s, [0.0], [0, 0], 1.0, 0.1, p, 0.005
    ),
    "truncated_score": lambda fam, s, p: truncated_score(fam, [0.3], p, s.observations),
    "truncated_points": lambda fam, s, p: truncated_points(fam, [0.3], p, s.observations),
    "phi_matrix": lambda fam, s, p: phi_matrix(fam, s.observations, [0.3]),
}


@pytest.mark.parametrize("entry", sorted(_THETA0_CALLS))
def test_theta0_of_the_wrong_length_raises(entry):
    fam = get_family("gaussian2")
    sample = draw_sample(fam, np.zeros(2), 20, seed=1)
    with pytest.raises(DomainError, match="theta0 has dimension 1, family gaussian2 needs 2"):
        _THETA0_CALLS[entry](fam, sample, TruncationPolicy(0.5, 0.1))


# ---------------------------------------------------------------------------
# root-density ratio g and the Hellinger affinity
# ---------------------------------------------------------------------------


def test_hellinger_g_worked_values():
    g = hellinger_g(get_family("gaussian"), 0.0, 0.2, np.array([0.0]))
    assert float(g[0]) == pytest.approx(math.exp(-0.01) - 1.0, abs=1e-12)
    g = hellinger_g(get_family("bernoulli"), 0.5, 0.3, np.array([1.0]))
    assert float(g[0]) == pytest.approx(math.sqrt(1.6) - 1.0, abs=1e-12)


def test_affinity_matches_closed_forms():
    # Gaussian location: exp(-tau^2/8)
    assert hellinger_affinity(get_family("gaussian"), 0.0, 1.0) == pytest.approx(
        math.exp(-0.125), abs=1e-8
    )
    # planar Gaussian: exp(-|tau|^2/8)
    assert hellinger_affinity(
        get_family("gaussian2"), np.zeros(2), np.array([0.2, 0.0])
    ) == pytest.approx(math.exp(-0.005), abs=1e-10)
    # Bernoulli: sqrt(t0 t1) + sqrt((1-t0)(1-t1))
    assert hellinger_affinity(get_family("bernoulli"), 0.5, 0.3) == pytest.approx(
        math.sqrt(0.4) + math.sqrt(0.1), abs=1e-12
    )
    # rate a vs b: 2 sqrt(ab) / (a + b)
    assert hellinger_affinity(get_family("exponential"), 1.0, 0.3) == pytest.approx(
        2.0 * math.sqrt(1.3) / 2.3, abs=1e-8
    )
    # unit Laplace shift D: exp(-D/2) (1 + D/2)
    assert hellinger_affinity(get_family("laplace"), 0.0, 0.4) == pytest.approx(
        math.exp(-0.2) * 1.2, abs=1e-8
    )


def test_affinity_random_gaussian_shifts():
    fam = get_family("gaussian")
    rng = np.random.default_rng(7)
    for _ in range(50):
        theta0 = float(rng.uniform(-1.0, 1.0))
        tau = float(rng.uniform(-0.3, 0.3))
        if abs(tau) < 1e-3:
            continue
        want = math.exp(-(tau**2) / 8.0)
        assert hellinger_affinity(fam, theta0, tau) == pytest.approx(want, abs=1e-8)


@settings(max_examples=25, deadline=None)
@given(
    theta0=st.floats(-1.5, 1.5),
    tau=st.floats(-0.5, 0.5).filter(lambda t: abs(t) > 1e-3),
)
def test_affinity_symmetric_and_bounded(theta0, tau):
    fam = get_family("gaussian")
    a = hellinger_affinity(fam, theta0, tau)
    b = hellinger_affinity(fam, theta0 + tau, -tau)
    assert 0.0 < a <= 1.0
    assert a == pytest.approx(b, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(theta0=st.floats(0.1, 0.9), tau=st.floats(-0.08, 0.08))
def test_affinity_symmetric_bernoulli(theta0, tau):
    fam = get_family("bernoulli")
    a = hellinger_affinity(fam, theta0, tau)
    want = math.sqrt(theta0 * (theta0 + tau)) + math.sqrt((1 - theta0) * (1 - theta0 - tau))
    assert a == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# score and Fisher information
# ---------------------------------------------------------------------------


def test_score_worked_values():
    # phi is the root-density derivative: phi = (d/dtau) g at tau = 0
    assert float(score(get_family("gaussian"), 0.0, 2.0)[0]) == pytest.approx(1.0, abs=1e-12)
    assert float(score(get_family("exponential"), 1.0, 1.0)[0]) == pytest.approx(0.0, abs=1e-12)
    # Bernoulli at 1/2: phi(1) = 1, phi(0) = -1
    assert float(score(get_family("bernoulli"), 0.5, 1.0)[0]) == pytest.approx(1.0)
    assert float(score(get_family("bernoulli"), 0.5, 0.0)[0]) == pytest.approx(-1.0)


@pytest.mark.parametrize("name", ("gaussian", "exponential", "laplace"))
def test_score_is_derivative_of_g(name):
    fam = get_family(name)
    theta0 = theta_for(name)
    rng = np.random.default_rng(11)
    xs = draw_sample(fam, theta0, 100, seed=5).observations.reshape(-1)
    h = 1e-5
    for x in xs:
        if name == "laplace" and abs(x - theta0[0]) < 1e-3:
            continue  # kink: derivative only a.e.
        fd = (
            hellinger_g(fam, theta0, h, np.array([x]))
            - hellinger_g(fam, theta0, -h, np.array([x]))
        ) / (2 * h)
        want = float(score(fam, theta0, x)[0])
        assert float(fd[0]) == pytest.approx(want, abs=1e-5 * (1 + abs(want)))
    del rng


def test_score_is_directional_derivative_planar():
    fam = get_family("gaussian2")
    theta0 = np.array([0.3, -0.2])
    xs = draw_sample(fam, theta0, 40, seed=5).observations
    h = 1e-5
    for i in range(2):
        e = np.zeros(2)
        e[i] = 1.0
        fd = (
            hellinger_g(fam, theta0, h * e, xs) - hellinger_g(fam, theta0, -h * e, xs)
        ) / (2 * h)
        want = np.asarray([score(fam, theta0, x)[i] for x in xs])
        np.testing.assert_allclose(np.asarray(fd), want, atol=1e-5, rtol=1e-5)


def test_fisher_quadrature_matches_closed_forms():
    assert fisher_by_quadrature(get_family("gaussian"), 0.0)[0, 0] == pytest.approx(1.0, abs=1e-6)
    assert fisher_by_quadrature(get_family("bernoulli"), 0.5)[0, 0] == pytest.approx(4.0, abs=1e-9)
    assert fisher_by_quadrature(get_family("bernoulli"), 0.3)[0, 0] == pytest.approx(
        1.0 / 0.21, abs=1e-9
    )
    assert fisher_by_quadrature(get_family("exponential"), 1.5)[0, 0] == pytest.approx(
        1.0 / 1.5**2, abs=1e-6
    )
    assert fisher_by_quadrature(get_family("laplace"), 0.0)[0, 0] == pytest.approx(1.0, abs=1e-6)
    np.testing.assert_allclose(
        fisher_by_quadrature(get_family("gaussian2"), np.zeros(2)), np.eye(2), atol=1e-6
    )


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_fisher_info_square_roots(name):
    fam = get_family(name)
    info = fisher_information(fam, theta_for(name))
    np.testing.assert_allclose(info.sqrt @ info.sqrt, info.matrix, atol=1e-10)
    np.testing.assert_allclose(info.inv_sqrt @ info.matrix @ info.inv_sqrt, np.eye(fam.d), atol=1e-10)
    w = np.linalg.eigvalsh(info.matrix)
    assert np.all(w > 0)


def test_phi_matrix_shape():
    fam = get_family("gaussian2")
    obs = draw_sample(fam, np.zeros(2), 13, seed=0).observations
    assert phi_matrix(fam, obs, np.zeros(2)).shape == (13, 2)
    fam1 = get_family("gaussian")
    obs1 = draw_sample(fam1, 0.0, 7, seed=0).observations
    assert phi_matrix(fam1, obs1, 0.0).shape == (7, 1)


def _loglik_grid_case(name, reps=3, n=50, grid=4):
    """Replication rows, a shared (G, d) grid and a per-row (R, G, d) grid."""
    fam = get_family(name)
    theta = theta_for(name)
    obs = np.stack([draw_sample(fam, theta, n, seed=s).observations for s in range(reps)])
    rng = np.random.default_rng(3)
    shared = theta + 0.1 * rng.uniform(-1.0, 1.0, (grid, fam.d))
    per_row = theta + 0.1 * rng.uniform(-1.0, 1.0, (reps, grid, fam.d))
    return fam, theta, obs, shared, per_row


def _direct_loglik(fam, obs, thetas):
    """sum_i log f(x_ri, theta) row by row and point by point."""
    grids = np.broadcast_to(thetas, (obs.shape[0],) + thetas.shape[-2:])
    return np.array(
        [[np.sum(fam.log_density(row, t)) for t in grid] for row, grid in zip(obs, grids)]
    )


@pytest.mark.parametrize("name", ("gaussian", "gaussian2", "bernoulli", "exponential"))
def test_loglik_grid_statistic_path_matches_density_sums(name):
    fam, theta, obs, shared, per_row = _loglik_grid_case(name)
    n = obs.shape[1]
    ref = theta[None, :]
    # the statistic path drops a theta-free constant, so compare differences
    want_ref = _direct_loglik(fam, obs, ref)
    got_ref = loglik_grid(fam, obs, ref)
    for grid in (shared, per_row):
        got = loglik_grid(fam, obs, grid)
        assert got.shape == (obs.shape[0], grid.shape[-2])
        want = _direct_loglik(fam, obs, grid) - want_ref
        np.testing.assert_allclose(got - got_ref, want, rtol=0, atol=1e-9 * n)


def test_loglik_grid_density_path_is_the_direct_sum():
    fam, _, obs, shared, per_row = _loglik_grid_case("laplace")
    assert fam.suff_stats(obs) is None
    for grid in (shared, per_row):
        np.testing.assert_array_equal(loglik_grid(fam, obs, grid), _direct_loglik(fam, obs, grid))


# ---------------------------------------------------------------------------
# quadrature and expectations
# ---------------------------------------------------------------------------


def test_expect_second_moments():
    assert expect(get_family("gaussian"), 0.5, lambda x: (x - 0.5) ** 2) == pytest.approx(
        1.0, abs=1e-9
    )
    assert expect(get_family("exponential"), 1.5, lambda x: x) == pytest.approx(
        1.0 / 1.5, abs=1e-9
    )
    assert expect(get_family("laplace"), 0.0, lambda x: x**2) == pytest.approx(2.0, abs=1e-8)
    fam2 = get_family("gaussian2")
    assert expect(fam2, np.zeros(2), lambda x: np.sum(np.asarray(x) ** 2, axis=-1)) == pytest.approx(
        2.0, abs=1e-10
    )


def test_gk21_rules_are_exact_to_their_degrees():
    # the 21-node Kronrod rule integrates x^k exactly on [-1, 1] up to k = 31
    # and its embedded 10-node Gauss rule up to k = 19
    x = families._GK_NODES
    assert x.size == 21 and np.all(np.diff(x) > 0) and np.count_nonzero(families._GK_GAUSS) == 10
    np.testing.assert_array_equal(x[1::2][families._GK_GAUSS[1::2] > 0], x[1::2])
    for k in range(33):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        kronrod = np.sum(x**k * families._GK_KRONROD)
        gauss = np.sum(x**k * families._GK_GAUSS)
        assert (abs(kronrod - exact) <= 1e-15) == (k <= 31 or k % 2 == 1), k
        assert (abs(gauss - exact) <= 1e-15) == (k <= 19 or k % 2 == 1), k


def _e_abs_cubed(a):
    """E|Z - a|^3 for Z ~ N(0, 1)."""
    return (a * a + 2.0) * 2.0 * sps.norm.pdf(a) + a * (a * a + 3.0) * (2.0 * sps.norm.cdf(a) - 1.0)


@pytest.mark.parametrize(
    "name, theta, h, want",
    [
        ("gaussian", 0.7, lambda x: 1.0, 1.0),
        ("gaussian", 0.0, lambda x: x**4, 3.0),
        ("exponential", 1.5, lambda x: 1.0, 1.0),
        ("exponential", 1.5, lambda x: x**2, 2.0 / 1.5**2),
        ("exponential", 0.5, lambda x: x**4, 24.0 / 0.5**4),
        ("laplace", 0.3, lambda x: 1.0, 1.0),
        ("laplace", 0.3, lambda x: np.abs(x - 0.3) ** 3, 6.0),
        ("laplace", -2.0, lambda x: x**2, 2.0 + 4.0),
        # |x - a|^3 is kinked at a = 0.3, inside the piece (0, inf)
        ("gaussian", 0.0, lambda x: np.abs(x - 0.3) ** 3, _e_abs_cubed(0.3)),
        ("gaussian", 1.0, lambda x: np.abs(x + 0.4) ** 3, _e_abs_cubed(1.4)),
    ],
)
def test_integrate_support_matches_closed_forms(name, theta, h, want):
    got = expect(get_family(name), theta, h)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def _quad_oracle(fam, fn, breaks):
    from scipy import integrate

    lo = 0.0 if fam.support.kind == "halfline" else -np.inf
    edges = [lo] + sorted(b for b in breaks if b > lo) + [np.inf]
    return sum(
        integrate.quad(lambda x: float(fn(np.asarray(x))), a, b, epsabs=1e-13, epsrel=1e-13,
                       limit=500)[0]
        for a, b in zip(edges[:-1], edges[1:])
    )


@pytest.mark.parametrize(
    "name, fn, breaks",
    [
        ("gaussian", lambda x: np.cos(3.0 * x) * np.exp(-0.5 * (x - 1.0) ** 2), [1.0]),
        ("gaussian", lambda x: np.exp(-0.5 * x**2 + 0.9 * np.abs(x - 2.0)), [0.0, 2.0]),
        ("gaussian", lambda x: np.exp(-np.abs(x - 0.25) - 0.5 * x**2), []),
        ("exponential", lambda x: x**1.5 * np.log1p(x) * np.exp(-2.0 * x), []),
        ("exponential", lambda x: np.where(x > 3.0, x**2, 0.0) * np.exp(-x), [1.0, 3.0]),
        ("laplace", lambda x: np.abs(x) ** 2.5 * np.exp(-np.abs(x - 0.2)), [0.2, 0.0]),
        ("laplace", lambda x: np.exp(-np.abs(x - 3.0) - 0.5 * np.abs(x + 1.0)), [3.0, -1.0]),
    ],
)
def test_integrate_support_matches_adaptive_quadpack(name, fn, breaks):
    fam = get_family(name)
    want = _quad_oracle(fam, fn, breaks)
    got = integrate_support(fam, fn, breaks)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


@pytest.mark.parametrize(
    "fn",
    [
        lambda x: np.ones_like(x),  # the line's measure: diverges
        lambda x: np.full_like(x, np.nan),
    ],
    ids=["divergent", "nan"],
)
def test_integrate_support_refuses_what_it_cannot_integrate(fn):
    with pytest.raises(QuadratureError):
        integrate_support(get_family("gaussian"), fn, [0.5])


def test_integrate_support_stops_at_the_subinterval_cap():
    # an oscillation no 21-node rule resolves: every subinterval keeps
    # bisecting until each piece holds its 200
    seen = []

    def fn(x):
        seen.append(x.size)
        return np.sin(1e6 * x) * np.exp(-0.5 * x * x)

    with pytest.raises(QuadratureError):
        integrate_support(get_family("gaussian"), fn, [0.5])
    assert sum(seen) >= 2 * families._QUAD_LIMIT * 21


def _kinked(x):
    return np.exp(-np.abs(x - 0.25) - 0.5 * x**2)


@pytest.mark.parametrize(
    "family, rows",
    [
        ("gaussian", [
            # x = +-(1 - t)/t maps each half to the constant 1: the first round converges
            (lambda x: 1.0 / (1.0 + np.abs(x)) ** 2, [0.0]),
            (lambda x: np.cos(3.0 * x) * np.exp(-0.5 * (x - 1.0) ** 2), [1.0]),
            (_kinked, []),
            (_kinked, [np.nan, np.inf, -np.inf]),
        ]),
        ("exponential", [
            (lambda x: 1.0 / (1.0 + x) ** 2, []),
            (lambda x: np.where(x > 3.0, x**2, 0.0) * np.exp(-x), [1.0, 3.0]),
            (lambda x: x**1.5 * np.log1p(x) * np.exp(-2.0 * x), [0.0, -2.0]),
            (lambda x: np.exp(-x), [np.nan, np.inf, 1.0]),
        ]),
    ],
    ids=["real", "halfline"],
)
def test_integrate_line_rows_match_each_row_alone(family, rows):
    fam = get_family(family)
    rounds = np.zeros(len(rows), dtype=int)

    def fn(x, row):
        rounds[np.unique(row)] += 1
        out = np.empty(x.size)
        for k, (f, _) in enumerate(rows):
            out[row == k] = f(x[row == k])
        return out

    got = families._integrate_line(fn, fam, [breaks for _, breaks in rows])
    assert rounds[0] == 1 and rounds[1] >= 4
    assert got[0] == pytest.approx(2.0 if family == "gaussian" else 1.0, abs=1e-15)
    for k, (f, breaks) in enumerate(rows):
        alone = families._integrate_line(lambda x, row: f(x), fam, [breaks])
        assert got[k] == alone[0], k


def test_integrate_line_raises_for_one_divergent_row():
    def rows(*fns):
        return lambda x, row: np.choose(row, [f(x) for f in fns])

    gauss, laplace = (lambda x: np.exp(-0.5 * x * x)), (lambda x: np.exp(-np.abs(x)))
    fam = get_family("gaussian")
    got = families._integrate_line(rows(gauss, laplace), fam, [[0.0], [1.0]])
    assert got == pytest.approx([math.sqrt(2.0 * math.pi), 2.0], abs=1e-10)
    with pytest.raises(QuadratureError):
        families._integrate_line(rows(gauss, np.ones_like, laplace), fam, [[0.0], [0.5], [1.0]])


@pytest.mark.parametrize("family", ("gaussian", "exponential", "laplace"))
def test_parameter_vectors_split_the_line_at_their_coordinate(family):
    # a length-1 parameter vector is a point of the 1-d observation space:
    # integrate_support and each row of _integrate_line split there exactly
    # as at the number
    fam = get_family(family)
    theta = theta_for(family)
    t1 = theta + 0.3

    def fn(x):
        return np.abs(x - t1[0]) ** 1.5 * np.exp(fam.log_density(x, theta))

    want = integrate_support(fam, fn, [float(theta[0]), float(t1[0])])
    assert integrate_support(fam, fn, [theta, t1]) == want
    rows = families._integrate_line(lambda x, row: fn(x), fam, [[theta, t1], [t1], [theta]])
    alone = [integrate_support(fam, fn, [float(t[0]) for t in ts]) for ts in ([t1], [theta])]
    assert rows.tolist() == [want, *alone]


def test_integrate_support_binary_is_exact_sum():
    fam = get_family("bernoulli")
    val = integrate_support(fam, lambda x: np.asarray(x) + 3.0)
    assert val == pytest.approx(7.0, abs=0.0)


def test_planar_quadrature_does_not_depend_on_blas_threads():
    # the planar rule reduces with a plain sum of products; a BLAS dot would
    # round by its thread count
    code = (
        "import numpy as np\n"
        "from modev import expect, get_family\n"
        "theta = np.array([0.3, -0.2])\n"
        "f = lambda x: (x[..., 0] - theta[0]) ** 4\n"
        "print(expect(get_family('gaussian2'), theta, f).hex())\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        outs.append(run.stdout.strip())
    assert outs[0] == outs[1]
    assert float.fromhex(outs[0]) == pytest.approx(3.0, rel=1e-13)


def test_tensor_rule_one_panel_is_the_plain_rule():
    nodes, wts = np.polynomial.legendre.leggauss(48)
    y, w = nodes * 15.5, wts * 15.5
    offsets, weights = tensor_rule(48, 15.5)
    assert np.array_equal(offsets, np.stack(np.meshgrid(y, y, indexing="ij"), axis=-1).reshape(-1, 2))
    assert np.array_equal(weights, (w[:, None] * w[None, :]).reshape(-1))


def test_tensor_rule_two_panels_integrate_a_centre_kink_exactly():
    # on [-2, 2]^2, |x1| integrates to 4 and |x2|^3 to 8; each is a polynomial on a panel
    offsets, weights = tensor_rule(4, 2.0, panels=2)
    assert offsets.shape == (64, 2)
    val = np.abs(offsets[:, 0]) * np.abs(offsets[:, 1]) ** 3 @ weights
    assert val == pytest.approx(4.0 * 8.0, rel=1e-14)


def test_integrate_support_planar_kink_off_centre_raises():
    # the kink at (3, 0) lies inside a panel of the window centred at 0
    fam = get_family("gaussian2")
    kink = np.array([3.0, 0.0])

    def fn(x):
        return np.exp(0.3 * np.linalg.norm(x - kink, axis=-1) + fam.log_density(x, np.zeros(2)))

    with pytest.raises(QuadratureError):
        integrate_support(fam, fn)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_draws_are_reproducible(name):
    fam = get_family(name)
    theta = theta_for(name)
    a = draw_sample(fam, theta, 64, seed=123)
    b = draw_sample(fam, theta, 64, seed=123)
    c = draw_sample(fam, theta, 64, seed=124)
    np.testing.assert_array_equal(a.observations, b.observations)
    assert not np.array_equal(a.observations, c.observations)
    assert a.n == 64 and a.family == name


def test_draws_land_in_support():
    obs = draw_sample(get_family("bernoulli"), 0.4, 500, seed=1).observations
    assert set(np.unique(obs)) <= {0.0, 1.0}
    obs = draw_sample(get_family("exponential"), 2.0, 500, seed=1).observations
    assert np.all(obs > 0)


STAT_FAMILIES = ("gaussian", "gaussian2", "bernoulli", "exponential")


def _two_parameter_rows(name, reps):
    """Rows alternating between the family's interior point and a second one."""
    theta = theta_for(name)
    other = theta * 0.5 + (0.1 if name != "exponential" else 0.5)
    thetas = np.where(np.arange(reps)[:, None] % 2 == 0, theta, other)
    return thetas, (theta, other)


def _stat_law(name, n, theta, j):
    """Exact law of coordinate j of the sum of n draws at theta."""
    t = float(theta[j])
    if name in ("gaussian", "gaussian2"):
        return sps.norm(n * t, math.sqrt(n))
    if name == "bernoulli":
        return sps.binom(n, t)
    return sps.gamma(n, scale=1.0 / t)


@pytest.mark.parametrize("name", STAT_FAMILIES)
def test_draw_stats_follow_exact_law(name):
    fam = get_family(name)
    n, reps = 30, 20000
    thetas, params = _two_parameter_rows(name, reps)
    stats = fam.draw_stats(np.random.default_rng(11), thetas, n)
    assert stats.shape == (reps, fam.d)
    for half, theta in enumerate(params):
        rows = stats[half::2]
        m = rows.shape[0]
        for j in range(fam.d):
            law = _stat_law(name, n, theta, j)
            # mean and variance z-scores; Var(s^2) = sigma^4 (kurtosis + 2) / m
            mean, var, kurt = (float(v) for v in law.stats(moments="mvk"))
            assert abs(rows[:, j].mean() - mean) <= 4.0 * math.sqrt(var / m)
            assert abs(rows[:, j].var(ddof=1) - var) <= 4.0 * var * math.sqrt((kurt + 2.0) / m)
            if name == "bernoulli":
                # chi-square over the atoms, tails pooled to expected counts >= 5
                ks = np.arange(n + 1)
                expected = law.pmf(ks) * rows.shape[0]
                keep = expected >= 5
                lo, hi = ks[keep][0], ks[keep][-1]
                obs = np.bincount(np.clip(rows[:, j].astype(int), lo, hi) - lo,
                                  minlength=hi - lo + 1)
                exp = law.pmf(np.arange(lo, hi + 1)) * rows.shape[0]
                exp[0] += law.cdf(lo - 1) * rows.shape[0]
                exp[-1] += law.sf(hi) * rows.shape[0]
                p = sps.chisquare(obs, exp * obs.sum() / exp.sum()).pvalue
            else:
                p = sps.kstest(rows[:, j], law.cdf).pvalue
            assert p > 1e-3, (theta, j, p)
        if fam.d == 2:
            r = np.corrcoef(rows.T)[0, 1]
            assert abs(r) < 4.0 / math.sqrt(rows.shape[0])


@pytest.mark.parametrize("name", STAT_FAMILIES)
def test_draw_block_statistics_match_draw_stats(name):
    # the statistic of a vectorized draw block and the exact-law draw agree in law
    fam = get_family(name)
    n, reps = 20, 4000
    thetas, _ = _two_parameter_rows(name, reps)
    block = fam.draw(np.random.default_rng(5), thetas, n)
    assert block.shape == (reps, n) + ((2,) if fam.obs_dim == 2 else ())
    assert fam.support.check(block)
    from_block = fam.suff_stats(block)
    direct = fam.draw_stats(np.random.default_rng(6), thetas, n)
    for half in (0, 1):
        for j in range(fam.d):
            p = sps.ks_2samp(from_block[half::2, j], direct[half::2, j]).pvalue
            assert p > 1e-3, (half, j, p)


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_draw_in_row_blocks_equals_one_draw(name):
    # the Monte Carlo chunks draw their rows in blocks from one generator
    fam = get_family(name)
    n, reps = 37, 23
    thetas, _ = _two_parameter_rows(name, reps)
    whole = fam.draw(np.random.default_rng(9), thetas, n)
    rng = np.random.default_rng(9)
    blocks = [fam.draw(rng, thetas[lo : lo + 5], n) for lo in range(0, reps, 5)]
    assert [len(b) for b in blocks] == [5, 5, 5, 5, 3]
    assert np.concatenate(blocks).tobytes() == whole.tobytes()


@pytest.mark.parametrize("n", (1, 2, 3, 4, 257, 1024, 4097))
@pytest.mark.parametrize("reps", (1, 50))
def test_laplace_median_by_selection_is_np_median(n, reps):
    obs = np.random.default_rng(n + reps).laplace(0.3, 1.0, (reps, n))
    got = get_family("laplace").mle_batch(obs)
    want = np.median(obs, axis=1)[:, None]
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_laplace_draw_adds_the_location_to_standard_draws():
    # the same bytes as numpy's broadcast location, a -0.0 location included:
    # loc - scale log(2 - 2U) and (0 - log(2 - 2U)) + loc differ only in the sign
    # of a zero at loc = -0.0, U = 1/2, and then the draw here is +0.0
    fam = get_family("laplace")
    thetas = np.array([[0.0], [-0.0], [0.3], [-2.75], [9.5]])
    got = fam.draw(np.random.default_rng(8), thetas, 4097)
    want = np.random.default_rng(8).laplace(thetas, 1.0, (5, 4097))
    assert got.tobytes() == want.tobytes()
    neg = fam.draw(np.random.default_rng(8), np.array([[-0.0]]), 4097)
    pos = fam.draw(np.random.default_rng(8), np.array([[0.0]]), 4097)
    assert neg.tobytes() == pos.tobytes()


def test_laplace_has_no_statistic_law():
    fam = get_family("laplace")
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert fam.draw_stats(rng, np.zeros((4, 1)), 10) is None
    assert rng.bit_generator.state == state  # nothing was drawn


@pytest.mark.parametrize("name", ("gaussian", "gaussian2", "bernoulli", "exponential"))
def test_only_laplace_has_a_window_law(name):
    fam = get_family(name)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert fam.draw_window(rng, np.zeros((4, fam.d)), 10, None, 4) is None
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("n", (2, 3, 64, 65))
def test_laplace_window_sample_structure(n):
    # the counts add up to n, only points outside the window carry a count
    # above 1, and the median sits at the middle of the counts
    fam = get_family("laplace")
    reps = 400
    thetas = np.linspace(-0.3, 0.3, reps)[:, None]

    ends = []

    def window(mid):
        ends.extend((np.minimum(mid[:, 0], -0.1), np.maximum(mid[:, 1], 0.2)))
        return ends

    blocks = list(fam.draw_window(np.random.default_rng(n), thetas, n, window, reps))
    assert len(blocks) == 1
    values, counts, medians = blocks[0]
    lo, hi = ends[0][:, None], ends[1][:, None]
    np.testing.assert_array_equal(counts.sum(axis=1), n)
    assert np.all(counts[(values >= lo) & (values <= hi)] <= 1.0)
    below = (counts * (values < medians)).sum(axis=1)
    above = (counts * (values > medians)).sum(axis=1)
    np.testing.assert_array_equal(below, n // 2)
    np.testing.assert_array_equal(above, n // 2)


def test_laplace_window_medians_follow_the_order_statistic_law():
    # P(median <= t) = P(Binomial(n, F(t)) >= (n + 1) / 2) for odd n;
    # Kolmogorov-Smirnov on 4,000 draws, and the even-n median against
    # medians of full samples
    fam = get_family("laplace")
    n, reps = 65, 4000
    thetas = np.full((reps, 1), 0.2)

    def window(mid):
        return mid[:, 0], mid[:, 1]

    def medians(rng, n):
        return np.concatenate([m for _, _, m in fam.draw_window(rng, thetas, n, window, 500)])

    med = medians(np.random.default_rng(1), n)

    def cdf(t):
        f = np.where(t < 0.2, 0.5 * np.exp(t - 0.2), 1.0 - 0.5 * np.exp(0.2 - t))
        return sps.binom.sf((n - 1) // 2, n, f)

    assert sps.kstest(med[:, 0], cdf).pvalue > 1e-3
    even = medians(np.random.default_rng(2), n + 1)
    full = np.median(fam.draw(np.random.default_rng(3), thetas, n + 1), axis=1)
    assert sps.ks_2samp(even[:, 0], full).pvalue > 1e-3


@pytest.mark.parametrize("n", (64, 65))
def test_laplace_window_blocks_read_one_stream(n):
    # blocks of 7 rows hold the rows one block of all 30 would, each row's
    # points in the same order (the padding to a block's width aside)
    fam = get_family("laplace")
    thetas = np.linspace(-0.2, 0.2, 30)[:, None]

    def window(mid):
        return np.minimum(mid[:, 0], -0.15), np.maximum(mid[:, 1], 0.25)

    def rows(size):
        out = []
        for values, counts, medians in fam.draw_window(np.random.default_rng(4), thetas, n,
                                                       window, size):
            out += [(v[c > 0].tobytes(), c[c > 0].tobytes(), m.tobytes())
                    for v, c, m in zip(values, counts, medians)]
        return out

    assert rows(7) == rows(30)


def test_bernoulli_boundary_loglik_is_finite():
    # an all-zeros (k = 0) or all-ones (k = n) sample has its MLE on the
    # boundary, where the likelihood is 1 and the log-likelihood 0
    fam = get_family("bernoulli")
    n = 12
    stats = np.array([[0.0], [float(n)]])
    grid = np.array([[0.0], [1.0], [0.25]])
    ll = fam.loglik_from_stats(stats, n, grid)
    np.testing.assert_array_equal(ll[:, :2], [[0.0, -np.inf], [-np.inf, 0.0]])
    np.testing.assert_allclose(ll[:, 2], [n * math.log(0.75), n * math.log(0.25)], rtol=1e-15)
    mle = fam.mle_from_stats(stats, n)
    np.testing.assert_array_equal(fam.loglik_from_stats(stats, n, mle[:, None, :]), [[0.0], [0.0]])
