"""Tests of the benchmark's output checks, against numeric integration,
exact enumeration and simulation that do not use modev.

    python3 -m pytest perfbench/test_checks.py
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sps

import checks


def _quad(f, *edges):
    """Integral of f over consecutive pieces between the given edges."""
    return sum(integrate.quad(f, a, b, limit=200)[0] for a, b in zip(edges, edges[1:]))


def test_gaussian_tail_is_the_normal_survival_function():
    for n, u in ((400, 400**-0.25), (6400, 6400**-0.25)):
        want = math.log(0.5 * math.erfc(math.sqrt(n) * u / math.sqrt(2.0)))
        assert checks.gaussian_logtail(n, u) == pytest.approx(want, rel=1e-12)


def test_bernoulli_atom_sum_matches_exact_enumeration():
    n, u = 40, 0.3
    want = sum(math.comb(n, k) for k in range(n + 1) if 2.0 * (k / n - 0.5) > u) / 2.0**n
    assert checks.bernoulli_logtail(n, u) == pytest.approx(math.log(want), rel=1e-12)


def test_exponential_tail_matches_the_poisson_identity():
    # P(Gamma(n, 1) < x) = P(Poisson(x) >= n)
    n, u = 50, 0.2
    want = sps.poisson.logsf(n - 1, n / (1.0 + u))
    assert checks.exponential_logtail(n, u) == pytest.approx(want, rel=1e-10)


def test_laplace_median_tail_matches_simulation():
    n, u, reps = 9, 0.4, 400_000
    med = np.median(np.random.default_rng(7).laplace(0.0, 1.0, (reps, n)), axis=1)
    p_sim = float(np.mean(med > u))
    p = math.exp(checks.laplace_median_logtail(n, u))
    assert abs(p_sim - p) < 4.0 * math.sqrt(p * (1 - p) / reps)
    with pytest.raises(ValueError):
        checks.laplace_median_logtail(10, u)


def _density(family, theta):
    if family == "gaussian":
        return lambda x: sps.norm.pdf(x, theta)
    if family == "laplace":
        return lambda x: 0.5 * math.exp(-abs(x - theta))
    return lambda x: theta * math.exp(-theta * x)  # exponential rate


@pytest.mark.parametrize("family,theta,tau", [
    ("gaussian", 0.3, 0.5), ("laplace", -1.0, 0.7), ("exponential", 2.0, 0.5),
])
def test_hellinger_closed_forms_match_quadrature(family, theta, tau):
    f0, f1 = _density(family, theta), _density(family, theta + tau)
    lo = 0.0 if family == "exponential" else -np.inf
    aff = integrate.quad(lambda x: math.sqrt(f0(x) * f1(x)), lo, np.inf, points=None)[0]
    got = checks._hellinger2(family, np.array([theta]), np.array([tau]))
    assert got == pytest.approx(2.0 * (1.0 - aff), abs=1e-9)


def test_gradient_moments_match_quadrature():
    m = 3.0
    gauss = integrate.quad(lambda x: abs(x) ** m * sps.norm.pdf(x), -np.inf, np.inf)[0]
    assert checks._gradient_moment("gaussian", np.zeros(1), m) == pytest.approx(gauss, rel=1e-9)
    assert checks._gradient_moment("gaussian", np.zeros(1), 3.0) == pytest.approx(2 * math.sqrt(2 / math.pi))
    planar = integrate.quad(lambda r: r**m * r * math.exp(-r * r / 2), 0, np.inf)[0]
    assert checks._gradient_moment("gaussian2", np.zeros(2), m) == pytest.approx(planar, rel=1e-9)
    assert checks._gradient_moment("gaussian2", np.zeros(2), 3.0) == pytest.approx(3 * math.sqrt(math.pi / 2))
    assert checks._gradient_moment("gaussian2", np.zeros(2), 4.0) == pytest.approx(8.0)
    t = 0.7
    expo = _quad(lambda x: abs(1 / t - x) ** 3 * t * math.exp(-t * x), 0, 1 / t, np.inf)
    assert checks._gradient_moment("exponential", np.array([t]), 3.0) == pytest.approx(expo, rel=1e-9)
    bern = t * (1 / t) ** m + (1 - t) * (1 / (1 - t)) ** m
    assert checks._gradient_moment("bernoulli", np.array([t]), m) == pytest.approx(bern)


def test_lr_moment_closed_forms_match_quadrature():
    eps, gamma = 0.5, 1.5
    for s in (0.3, 1.2):  # L ~ N(-s^2/2, s^2)
        def integrand(l):
            return math.exp(gamma * l + sps.norm.logpdf(l, -s * s / 2, s))
        want = _quad(integrand, -60.0, -eps) + _quad(integrand, eps, 60.0)
        assert checks._lr_moment("gaussian", np.zeros(1), np.array([s]), eps, gamma) == pytest.approx(want, rel=1e-8)
        planar = checks._lr_moment("gaussian2", np.zeros(2), np.array([0.6 * s, 0.8 * s]), eps, gamma)
        assert planar == pytest.approx(want, rel=1e-8)
    for theta, tau in ((1.0, 0.8), (1.0, -0.6)):
        t1 = theta + tau

        def lr_term(x):
            lr = math.log(t1 / theta) - tau * x
            return math.exp(gamma * lr - theta * x) * theta if abs(lr) > eps else 0.0

        kinks = sorted((math.log(t1 / theta) + e) / tau for e in (eps, -eps))
        want = _quad(lr_term, 0, *[k for k in kinks if k > 0], np.inf)
        got = checks._lr_moment("exponential", np.array([theta]), np.array([tau]), eps, gamma)
        assert got == pytest.approx(want, rel=1e-7)
    assert checks._lr_moment("laplace", np.zeros(1), np.array([0.1]), eps, gamma) == 0.0


def test_exp_moment_closed_forms_match_quadrature():
    g, t = 0.1, 1.0
    want = _quad(lambda x: math.exp(g * abs(x)) * sps.norm.pdf(x, t), -np.inf, 0.0, np.inf)
    assert checks._exp_moment("gaussian", np.array([t]), "abs", g) == pytest.approx(want, rel=1e-9)
    one_axis = _quad(lambda x: math.exp(g * x * x + sps.norm.logpdf(x, t)), -40, 40)
    zero_axis = _quad(lambda x: math.exp(g * x * x + sps.norm.logpdf(x)), -40, 40)
    got = checks._exp_moment("gaussian2", np.array([t, 0.0]), "square", g)
    assert got == pytest.approx(one_axis * zero_axis, rel=1e-9)


def test_laplace_residual_closed_form_matches_its_definition():
    # sum_i log f(X_i; u)/f(X_i; 0) - (2 u sum phi - n u^2/2), with phi = sign(x)/2
    x = np.random.default_rng(3).laplace(0.0, 1.0, 501)
    for u in (-0.3, -0.05, 0.02, 0.4):
        direct = float(np.sum(np.abs(x) - np.abs(x - u)) - (u * np.sum(np.sign(x)) - len(x) * u * u / 2))
        got = checks.lan_residual_closed_form("laplace", x, np.array([u]), threshold=10.0)
        assert got == pytest.approx(direct, abs=1e-9)


def test_gaussian_residual_is_the_truncated_score_sum():
    x = np.array([0.1, -7.0, 2.0, 9.0])
    assert checks.lan_residual_closed_form("gaussian", x, np.array([0.5]), threshold=3.0) == pytest.approx(1.0)
    assert checks.lan_sup("gaussian", x, radius=1.0, step=0.25, threshold=3.0) == pytest.approx(1.5)


def test_ball_grid_is_open_and_complete():
    pts = checks.ball_grid(2, 1.0, 0.25)
    assert len(pts) == 45  # i^2 + j^2 < 16 over integer (i, j)
    assert len(checks.ball_grid(1, 1.0, 0.25)) == 7


def _curve(tmp_path, rows, name="ldp_curve.csv"):
    lines = ["n,u_n,method,p_hat,stderr_log,normalized_rate,target_rate"]
    for n, u, logp, se in rows:
        lines.append(f"{n},{u!r},tilted,{math.exp(logp)!r},{se!r},{-logp / (n * u * u / 2)!r},1")
    (tmp_path / name).write_text("\n".join(lines) + "\n")


def test_curve_check_flags_a_point_far_from_its_tail(tmp_path):
    sched = {"n_values": [400, 1600], "alpha": 0.25, "c": 1.0}
    us = [n**-0.25 for n in sched["n_values"]]
    exact = [checks.gaussian_logtail(n, u) for n, u in zip(sched["n_values"], us)]
    _curve(tmp_path, [(400, us[0], exact[0] + 0.01, 0.05), (1600, us[1], exact[1] - 0.02, 0.05)])
    assert checks.gaussian_half_space((tmp_path, {"schedule": sched})) == []
    _curve(tmp_path, [(400, us[0], exact[0] + 0.01, 0.05), (1600, us[1], exact[1] + 0.5, 0.05)])
    assert len(checks.gaussian_half_space((tmp_path, {"schedule": sched}))) == 1


def test_equivalence_check_flags_a_rising_curve(tmp_path):
    sched = {"n_values": [257, 1025, 4097], "alpha": 1 / 3, "c": 1.0}
    us = [n ** (-1 / 3) for n in sched["n_values"]]
    falling = [(n, u, lp, 0.1) for n, u, lp in zip(sched["n_values"], us, (-2.0, -5.0, -12.0))]
    for kind in ("mle_vs_psi", "lr_vs_wald", "lr_vs_psi2"):
        _curve(tmp_path, falling, f"equivalence_{kind}.csv")
    assert checks.laplace_equivalence((tmp_path, {"schedule": sched})) == []
    rising = [(n, u, lp, 0.1) for n, u, lp in zip(sched["n_values"], us, (-4.0, -3.0, -2.0))]
    _curve(tmp_path, rising, "equivalence_lr_vs_wald.csv")
    assert len(checks.laplace_equivalence((tmp_path, {"schedule": sched}))) == 4


def test_conditions_check_flags_a_wrong_b_moment(tmp_path):
    s, eps, gamma = 0.1, 0.5, 1.5
    good = checks._lr_moment("gaussian", np.zeros(1), np.array([s]), eps, gamma)
    for value, problems in ((good, 0), (good * 1e-20, 1)):
        report = {"condition": "B", "verdict": "pass",
                  "parameters": {"eps": eps, "gamma_n": gamma},
                  "witnesses": [{"input": {"theta": [0.0, 0.0], "tau": [s, 0.0]}, "value": value}]}
        (tmp_path / "conditions.json").write_text(json.dumps([report]))
        found = checks.conditions("gaussian2", "moment_b")((Path(tmp_path), {}))
        assert len(found) == problems
