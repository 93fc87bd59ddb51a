"""Quadratic log-likelihood expansion: exactness, identities, and the score LDP."""

import math

import numpy as np
import pytest

from modev import (
    DomainError,
    GridError,
    MleEvent,
    PsiEvent,
    RegionSpec,
    SampleBatch,
    TruncationPolicy,
    draw_sample,
    estimate_prob,
    fisher_information,
    get_family,
    lan_residual,
    loglr_sum,
    lr_process,
    psi_n,
    sup_lan_residual,
    truncated_score,
    zeta_n,
)
from modev.lan import _ball_grid

INACTIVE = TruncationPolicy.inactive()


def _manual_sample(obs, family="gaussian", theta=0.0):
    obs = np.asarray(obs, dtype=float)
    return SampleBatch(
        family=family,
        theta_gen=np.atleast_1d(np.asarray(theta, dtype=float)),
        n=obs.shape[0],
        observations=obs,
        seed=0,
    )


def test_lr_process_worked_value():
    fam = get_family("gaussian")
    sample = _manual_sample([1.0, 1.0, 1.0, 1.0])
    # sum_xi = sum(u x - u^2/2) = 0.4 - 0.02
    assert lr_process(fam, sample, 0.0, 0.1) == pytest.approx(math.exp(0.38), rel=1e-12)


def test_decomposition_worked_values():
    fam = get_family("gaussian")
    sample = _manual_sample([1.0, 1.0, 1.0, 1.0])
    policy = TruncationPolicy(eps=1e6, u_n=1.0)
    assert zeta_n(fam, sample, 0.0, policy, 0.1) == pytest.approx(0.38, abs=1e-14)
    np.testing.assert_allclose(psi_n(fam, sample, 0.0, policy), [1.0], atol=1e-14)
    dec = lan_residual(fam, sample, 0.0, b=0.0, u=0.1, policy=policy)
    assert dec.residual == pytest.approx(0.0, abs=1e-14)
    assert dec.sum_xi == pytest.approx(0.38, abs=1e-14)


@pytest.mark.parametrize("seed", range(40))
def test_gaussian_expansion_is_exact(seed):
    fam = get_family("gaussian")
    n = 128
    u_n = n ** (-0.25)
    sample = draw_sample(fam, 0.2, n, seed=seed)
    policy = TruncationPolicy(eps=1e6, u_n=u_n)
    rng = np.random.default_rng(seed + 1000)
    u = float(rng.uniform(-2 * u_n, 2 * u_n))
    dec = lan_residual(fam, sample, 0.2, b=0.0, u=u, policy=policy)
    assert abs(dec.residual) < 1e-10


def test_planar_gaussian_expansion_is_exact():
    fam = get_family("gaussian2")
    n = 64
    u_n = n ** (-0.25)
    theta0 = np.array([0.1, -0.3])
    policy = TruncationPolicy(eps=1e6, u_n=u_n)
    for seed in range(10):
        sample = draw_sample(fam, theta0, n, seed=seed)
        rng = np.random.default_rng(seed)
        u = rng.uniform(-u_n, u_n, size=2)
        dec = lan_residual(fam, sample, theta0, b=np.zeros(2), u=u, policy=policy)
        assert abs(dec.residual) < 1e-10


@pytest.mark.parametrize("family", ("gaussian", "laplace", "exponential"))
def test_zeta_flip_identity(family):
    # linear parts cancel: zeta(u) + zeta(-u) = -n u'Iu
    fam = get_family(family)
    theta0 = 1.0 if family == "exponential" else 0.0
    sample = draw_sample(fam, theta0, 50, seed=3)
    policy = TruncationPolicy(eps=0.5, u_n=0.2)
    from modev import fisher_information

    info = fisher_information(fam, theta0)
    for u in (0.05, -0.11, 0.2):
        total = zeta_n(fam, sample, theta0, policy, u) + zeta_n(fam, sample, theta0, policy, -u)
        assert total == pytest.approx(-sample.n * u * info.matrix[0, 0] * u, rel=1e-12)
    assert zeta_n(fam, sample, theta0, policy, 0.0) == 0.0


def test_truncation_zeroes_large_scores_only():
    fam = get_family("laplace")
    sample = draw_sample(fam, 0.0, 400, seed=9)
    tight = TruncationPolicy(eps=0.1, u_n=0.2)  # threshold 0.5 on |phi|, phi = sign/2
    loose = TruncationPolicy(eps=1.0, u_n=0.2)
    t_tight = truncated_score(fam, 0.0, tight, sample.observations)
    t_loose = truncated_score(fam, 0.0, loose, sample.observations)
    assert np.all(np.linalg.norm(t_tight, axis=-1) < tight.threshold)
    # |phi| = 1/2 everywhere for the Laplace location score, so the tight
    # policy keeps everything at threshold 0.5 open-strictly: 0.5 < 0.5 fails
    assert np.all(t_tight == 0.0)
    assert np.any(t_loose != 0.0)
    zeroed_tight = int(np.sum(np.all(t_tight == 0.0, axis=-1)))
    zeroed_loose = int(np.sum(np.all(t_loose == 0.0, axis=-1)))
    assert zeroed_loose <= zeroed_tight


def test_truncated_score_keeps_the_sample_axes():
    policy = TruncationPolicy(eps=0.5, u_n=0.5)  # threshold 1 on |phi|
    for name, obs_shape in (("gaussian", ()), ("gaussian2", (2,))):
        fam = get_family(name)
        theta0 = np.zeros(fam.d)
        stack = np.random.default_rng(4).normal(scale=2.0, size=(3, 50) + obs_shape)
        got = truncated_score(fam, theta0, policy, stack)
        assert got.shape == (3, 50, fam.d)
        for row, want in zip(stack, got):
            np.testing.assert_array_equal(truncated_score(fam, theta0, policy, row), want)
        assert np.any(got == 0.0) and np.any(got != 0.0)
        # one observation: no sample axis
        one = truncated_score(fam, theta0, policy, stack[0, 0])
        np.testing.assert_array_equal(one, got[0, 0])
        assert one.shape == (fam.d,)


def test_loglr_sum_has_explicit_shift():
    fam = get_family("gaussian")
    sample = draw_sample(fam, 0.0, 30, seed=2)
    obs = sample.observations
    u_n, b, u = 0.1, 0.7, 0.05
    want = float(
        np.sum(
            -0.5 * (obs - (u_n * b + u)) ** 2 + 0.5 * (obs - u_n * b) ** 2
        )
    )
    assert loglr_sum(fam, sample, 0.0, b, u, u_n) == pytest.approx(want, rel=1e-12)


def test_loglr_sum_refuses_a_shifted_point_outside_the_domain():
    # the exponential rate lives on (0.1, 10): the base point 0.2 is inside,
    # the shifted point 0.2 - 0.15 is not
    fam = get_family("exponential")
    sample = draw_sample(fam, 0.2, 50, seed=0)
    with pytest.raises(DomainError, match=r"shifted parameter \[0.0500+2\] outside domain"):
        loglr_sum(fam, sample, [0.2], [0.0], [-0.15], 0.1)


def test_sup_residual_zero_for_gaussian():
    fam = get_family("gaussian")
    n, u_n = 256, 0.25
    sample = draw_sample(fam, 0.0, n, seed=17)
    policy = TruncationPolicy(eps=1e6, u_n=u_n)
    sup = sup_lan_residual(
        fam, sample, 0.0, b=0.0, C=2.0, u_n=u_n, policy=policy, grid_step=u_n / 20
    )
    assert sup < 1e-9


@pytest.mark.parametrize("family", ("gaussian", "laplace", "gaussian2"))
def test_sup_residual_is_max_of_pointwise_residuals(family):
    # the sup and the pointwise record share one quadratic model, so a change
    # to zeta_n shows in both
    fam = get_family(family)
    n = 256
    u_n = n ** (-1.0 / 3.0)
    zero = np.zeros(fam.d)
    sample = draw_sample(fam, zero, n, seed=21)
    policy = TruncationPolicy(eps=0.5, u_n=u_n)
    fisher = fisher_information(fam, zero)
    step = u_n / 20
    grid = _ball_grid(fam.d, 2.0 * u_n, step)
    sup = sup_lan_residual(fam, sample, zero, zero, 2.0, u_n, policy, step)
    pointwise = max(
        abs(lan_residual(fam, sample, zero, zero, u, policy).residual)
        for u in grid
    )
    if family == "gaussian":
        # nothing is truncated at this eps, and sum_xi = zeta_n holds exactly
        assert sup == 0.0
    else:
        assert sup > 0.0
    assert sup == pytest.approx(pointwise, rel=0, abs=1e-9 * n)
    # against per-point direct sums of the log density over the sample
    obs = sample.observations
    s_eps = truncated_score(fam, zero, policy, obs).sum(axis=0)
    direct = max(
        abs(np.sum(fam.log_density(obs, u) - fam.log_density(obs, zero))
            - (2.0 * u @ s_eps - 0.5 * n * u @ fisher.matrix @ u))
        for u in grid
    )
    assert sup == pytest.approx(direct, rel=0, abs=1e-9 * n)


@pytest.mark.parametrize("family", ("gaussian", "laplace", "gaussian2"))
def test_pointwise_residual_is_the_sups_value_bit_for_bit(family):
    # both read sum_xi off loglik_grid and the score sum off one row kernel
    fam = get_family(family)
    n = 256
    u_n = n ** (-1.0 / 3.0)
    zero = np.zeros(fam.d)
    policy = TruncationPolicy(eps=0.5, u_n=u_n)
    step = u_n / 20
    grid = _ball_grid(fam.d, 2.0 * u_n, step)
    for seed in range(5):
        sample = draw_sample(fam, zero, n, seed=seed)
        sup = sup_lan_residual(fam, sample, zero, zero, 2.0, u_n, policy, step)
        pointwise = max(
            abs(lan_residual(fam, sample, zero, zero, u, policy).residual)
            for u in grid
        )
        assert sup == pointwise


def test_gaussian_sup_residual_is_the_truncated_away_sum():
    # on gaussian at theta0 = 0 and b = 0, sum_xi(u) - zeta_n(u) = u C, with C
    # the sum of the observations whose score the truncation cuts to 0
    fam = get_family("gaussian")
    n, eps = 256, 0.2
    u_n = n ** (-1.0 / 3.0)
    zero = np.zeros(1)
    sample = draw_sample(fam, zero, n, seed=21)
    x = sample.observations
    cut = np.abs(x) >= 2.0 * eps / u_n
    assert cut.any()
    grid = _ball_grid(1, 2.0 * u_n, u_n / 20)
    want = float(np.max(np.abs(grid[:, 0] * x[cut].sum())))
    policy = TruncationPolicy(eps=eps, u_n=u_n)
    sup = sup_lan_residual(fam, sample, zero, zero, 2.0, u_n, policy, u_n / 20)
    assert sup == pytest.approx(want, rel=0, abs=1e-9 * n)


def test_sup_residual_rejects_coarse_grids():
    fam = get_family("gaussian")
    sample = draw_sample(fam, 0.0, 64, seed=0)
    policy = TruncationPolicy(eps=0.5, u_n=0.2)
    with pytest.raises(GridError):
        sup_lan_residual(
            fam, sample, 0.0, b=0.0, C=2.0, u_n=0.2, policy=policy, grid_step=0.2 / 19
        )
    with pytest.raises(GridError):
        sup_lan_residual(
            fam, sample, 0.0, b=0.0, C=2.0, u_n=0.2, policy=policy, grid_step=0.0
        )


def test_laplace_residual_vanishes_at_working_scale():
    # residual / (n u_n^2) must shrink as n grows; the raw residual need not
    fam = get_family("laplace")
    med = []
    for n in (256, 1024, 4096):
        u_n = n ** (-1.0 / 3.0)
        policy = TruncationPolicy(eps=1e6, u_n=u_n)
        vals = []
        for seed in range(60):
            sample = draw_sample(fam, 0.0, n, seed=seed)
            dec = lan_residual(fam, sample, 0.0, b=0.0, u=u_n, policy=policy)
            vals.append(abs(dec.residual) / (n * u_n**2))
        med.append(float(np.median(vals)))
    assert med[0] > med[1] > med[2]


@pytest.mark.parametrize("n", (256, 1024, 4096))
def test_laplace_residual_matches_closed_form(n):
    # theta0 = 0, eps = 0.5: |phi| = 1/2 < eps/u_n, so truncation never binds
    # and R(u) = n u^2/2 - 2 sum_{0 < s X_i < |u|} (|u| - s X_i), s = sign(u)
    fam = get_family("laplace")
    u_n = n ** (-1.0 / 3.0)
    policy = TruncationPolicy(eps=0.5, u_n=u_n)
    for seed in range(10):
        sample = draw_sample(fam, 0.0, n, seed=seed)
        x = sample.observations
        extra = np.random.default_rng([7, n, seed]).uniform(-2 * u_n, 2 * u_n, size=2)
        for u in (u_n, -u_n, 2 * u_n, -2 * u_n, *extra):
            sx = np.sign(u) * x
            inside = (sx > 0) & (sx < abs(u))
            want = 0.5 * n * u * u - 2.0 * float(np.sum(abs(u) - sx[inside]))
            dec = lan_residual(fam, sample, 0.0, b=0.0, u=u, policy=policy)
            assert abs(dec.residual - want) < 1e-10


def test_psi_ldp_rate():
    # the standardized truncated-score statistic obeys the same rate
    # functional as the estimator deviations: complement of a ball of
    # radius 1.5 gives -log p ~ (n u_n^2 / 2) * 2.25
    fam = get_family("gaussian")
    n = 4096
    u_n = n ** (-0.25)
    event = PsiEvent(RegionSpec("complement_ball", d=1, r=1.5))
    est = estimate_prob(
        event, fam, 0.0, n, u_n, method="tilted", n_reps=4000, seed=11, eps=100.0
    )
    rate = -est.log_p / (n * u_n**2 / 2.0)
    assert abs(rate - 2.25) / 2.25 < 0.20


def test_truncation_policy_validation():
    with pytest.raises(ValueError):
        TruncationPolicy(eps=0.0, u_n=0.1)
    with pytest.raises(ValueError):
        TruncationPolicy(eps=0.5, u_n=-1.0)
    assert TruncationPolicy(eps=0.5, u_n=0.1).threshold == pytest.approx(5.0)
