"""Regularity checks against independently derived values."""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.stats as sps
from scipy import integrate, special

from modev import (
    Box,
    DivergenceError,
    DomainError,
    GridError,
    LossSpec,
    MonotoneError,
    NonDifferentiableWarning,
    check_a0,
    check_c,
    check_d,
    check_dqm,
    check_e,
    check_exp_moment,
    check_loss,
    check_moment_b,
    get_family,
)
from modev import conditions
from modev.families import GaussianLocation, LaplaceLocation, hellinger_affinity

GAUSS = get_family("gaussian")


# ---------------------------------------------------------------------------
# Hellinger separation (A0)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("delta", (0.5, 1.0, 2.0))
def test_a0_gaussian_infimum(delta):
    rep = check_a0(GAUSS, Box(np.array([-2.0]), np.array([2.0])), delta)
    want = 2.0 * (1.0 - math.exp(-(delta**2) / 8.0))
    assert rep.verdict == "pass"
    assert rep.witnesses[0].value == pytest.approx(want, abs=1e-4)


def test_a0_planar_gaussian_infimum():
    fam = get_family("gaussian2")
    rep = check_a0(fam, Box(np.full(2, -1.0), np.full(2, 1.0)), 0.5)
    want = 2.0 * (1.0 - math.exp(-0.25 / 8.0))
    assert rep.verdict == "pass"
    assert rep.witnesses[0].value == pytest.approx(want, abs=1e-12)


def test_a0_grid_validation():
    compact = Box(np.array([-2.0]), np.array([2.0]))
    with pytest.raises(GridError):
        check_a0(GAUSS, compact, 0.0)
    with pytest.raises(GridError):
        check_a0(GAUSS, compact, 100.0)  # exceeds the domain diameter
    with pytest.raises(GridError):
        check_a0(GAUSS, Box(np.array([-20.0]), np.array([2.0])), 0.5)


def _a0_pair_grid(fam, compact, delta):
    """Every feasible (theta, tau) pair of check_a0's scan, in its order: theta
    on the delta/10 grid over the compact, tau at six magnitudes from delta
    along each signed axis."""
    step = delta / 10.0
    axes = [np.arange(compact.lo[i], compact.hi[i] + step / 2, step) for i in range(fam.d)]
    thetas = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    margin = 1e-9 * np.max(fam.theta_domain.width())
    taus = [delta * f * s * e for s in (1, -1) for e in np.eye(fam.d)
            for f in (1.0, 1.3, 1.7, 2.2, 3.0, 4.0)]
    return [
        (theta, tau)
        for theta in (fam.theta_domain.clip_interior(t, margin) for t in thetas)
        for tau in taus
        if fam.theta_domain.contains(theta + tau)
    ]


def _full_scan(fam):
    """fam without its location declaration: every check scans every theta."""
    return type(f"FullScan{type(fam).__name__}", (type(fam),), {"location": False})()


def _a0_oracle(fam, compact, delta):
    """The A0 infimum with hellinger_affinity on every pair of the scan."""
    pairs = _a0_pair_grid(fam, compact, delta)
    return min(2.0 * (1.0 - min(hellinger_affinity(fam, t, tau), 1.0)) for t, tau in pairs)


@pytest.mark.parametrize(
    "family, lo, hi",
    [
        ("gaussian", -2.0, 2.0),
        ("laplace", -2.0, 2.0),  # kinks at theta and theta + tau
        ("exponential", 0.1, 3.0),  # scale 1/theta reaches 10 at theta = 0.1
    ],
)
def test_a0_rule_matches_adaptive_quadrature(family, lo, hi):
    # every pair of the full scan is a row of one call of the adaptive rule,
    # and each row must be hellinger_affinity's pair integrated alone
    fam = _full_scan(get_family(family))
    compact = Box(np.array([lo]), np.array([hi]))
    pairs = _a0_pair_grid(fam, compact, 0.5)
    assert len(pairs) > 300
    assert min(float(theta[0]) for theta, _ in pairs) < lo + 1e-8
    rep = check_a0(fam, compact, 0.5)
    assert rep.witnesses[0].value == _a0_oracle(fam, compact, 0.5)


@pytest.mark.parametrize(
    "family, halfwidth", [("gaussian", 1.0), ("laplace", 1.0), ("gaussian2", 0.05)]
)
def test_a0_location_scan_matches_full_scan(family, halfwidth):
    # the oracle: hellinger_affinity on every pair of the full theta scan
    fam = get_family(family)
    compact = Box(np.full(fam.d, -halfwidth), np.full(fam.d, halfwidth))
    pairs = _a0_pair_grid(fam, compact, 0.5)
    assert len({tuple(t) for t, _ in pairs}) > 1
    want = min(2.0 * (1.0 - hellinger_affinity(fam, t, tau)) for t, tau in pairs)
    rep = check_a0(fam, compact, 0.5)
    assert rep.witnesses[0].value == pytest.approx(want, rel=1e-12, abs=0.0)
    assert float(np.linalg.norm(rep.witnesses[0].input["tau"])) == 0.5


@dataclass(frozen=True)
class _OffsetLaplace(LaplaceLocation):
    """Laplace(theta + 0.3, 1): its kinks fall off the breaks theta and
    theta + tau."""

    name: str = "offset-laplace"

    def log_density(self, x, theta):
        return super().log_density(np.asarray(x, dtype=float) - 0.3, theta)


@dataclass(frozen=True)
class _CauchyLocation(GaussianLocation):
    """Cauchy(theta, 1): tails that decay only as x^-2."""

    name: str = "cauchy"

    def log_density(self, x, theta):
        return -math.log(math.pi) - np.log1p((np.asarray(x, dtype=float) - theta[..., 0]) ** 2)


@pytest.mark.parametrize("fam", (_OffsetLaplace(), _CauchyLocation()), ids=lambda f: f.name)
def test_a0_rule_hands_untrusted_pairs_to_adaptive_quadrature(fam):
    # a kink off the breaks, or tails that decay only as x^-2: each row must
    # still be its pair integrated alone
    compact = Box(np.array([-0.5]), np.array([0.5]))
    rep = check_a0(_full_scan(fam), compact, 0.5)
    best = _a0_oracle(fam, compact, 0.5)
    assert rep.witnesses[0].value == best
    if fam.name == "offset-laplace":
        # a location family: H^2 = 2 (1 - (1 + tau/2) e^{-tau/2}) at the smallest tau
        assert best == pytest.approx(2.0 * (1.0 - 1.25 * math.exp(-0.25)), abs=1e-10)


# ---------------------------------------------------------------------------
# DQM
# ---------------------------------------------------------------------------


def test_dqm_gaussian_modulus_shrinks():
    taus = [m * np.ones(1) for m in (0.001, 0.01, 0.1)]
    model, rep = check_dqm(GAUSS, 0.0, taus)
    assert rep.verdict == "pass"
    omega = rep.parameters["raw_omega"]
    # mean-square linearization error of sqrt-density ratio is O(|tau|^2)
    assert omega[0] < omega[-1] < 1e-3
    assert model.omega_fit.shape[1] == 2
    np.testing.assert_allclose(model.phi_values(np.array([2.0])), [1.0], atol=1e-12)


def test_dqm_integrand_stays_finite_in_the_far_tail():
    # exp((l1 - l0)/2) alone overflows where the density underflows at |tau| >= 0.5;
    # E[(g - tau x/2)^2] = 2 + tau^2/4 - 2 (1 + tau^2/4) e^{-tau^2/8} for N(0, 1)
    _, rep = check_dqm(GAUSS, 0.0, [[1e-3], [1e-2], [1e-1], [0.5], [1.0]])
    omega = rep.parameters["raw_omega"]
    for tau, got in zip((0.5, 1.0), omega[3:]):
        t2 = tau * tau
        want = (2.0 + t2 / 4.0 - 2.0 * (1.0 + t2 / 4.0) * math.exp(-t2 / 8.0)) / t2
        assert got == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("family", ("gaussian", "laplace"))
def test_dqm_small_tau_omega_is_accurate(family):
    # both families give E[(g - tau phi)^2] in closed form, here as series in
    # a = tau^2/8 and in tau, free of the cancellation the closed forms suffer
    _, rep = check_dqm(get_family(family), 0.0, [[1e-3], [1e-2], [1e-1]])
    for tau, got in zip((1e-3, 1e-2), rep.parameters["raw_omega"]):
        if family == "gaussian":
            # 2 + tau^2/4 - 2 (1 + tau^2/4) e^{-tau^2/8} = sum_{j>=2} (-1)^j (4j - 2) a^j / j!
            a = tau * tau / 8.0
            terms = [(-1) ** j * (4 * j - 2) * a**j / math.factorial(j) for j in range(2, 30)]
        else:
            # 2 + h^2 - 2 (1 + h + h^2) e^{-h} = sum_{j>=3} (-1)^(j+1) 2 (j - 1)^2 h^j / j!
            # at h = tau/2
            h = tau / 2.0
            terms = [(-1) ** (j + 1) * 2 * (j - 1) ** 2 * h**j / math.factorial(j)
                     for j in range(3, 30)]
        want = math.fsum(terms) / (tau * tau)
        assert got == pytest.approx(want, rel=1e-9, abs=0.0), tau


# ---------------------------------------------------------------------------
# truncated LR moments (B) and the exponential envelope (A1A2)
# ---------------------------------------------------------------------------


def test_moment_b_trivial_when_truncation_inactive():
    # Bernoulli log ratios are bounded, so a threshold past the range leaves
    # nothing to truncate and the moment is exactly zero
    fam = get_family("bernoulli")
    rep = check_moment_b(fam, 0.5, 0.1, 0.5, 1.5, [0.05, 0.1, -0.1])
    assert rep.verdict == "pass"
    assert rep.parameters["max_value"] == 0.0


def test_moment_b_gaussian_small():
    rep = check_moment_b(GAUSS, 0.0, 0.1, 0.5, 1.5, [0.05, 0.1, -0.1])
    assert rep.verdict == "pass"
    assert 0.0 < rep.parameters["max_value"] < 1e-4


def _lr_moment_closed_form(family, theta, tau, eps, gamma):
    """E_theta[e^{gamma L} 1(|L| > eps)] for L = log f_{theta+tau}/f_theta."""
    s = float(np.linalg.norm(tau))
    if family in ("gaussian", "gaussian2"):
        # L ~ N(-s^2/2, s^2); the tilt e^{gamma L} moves its mean to -s^2/2 + gamma s^2
        mean = -s * s / 2.0 + gamma * s * s
        mgf = math.exp(gamma * (-s * s / 2.0) + gamma * gamma * s * s / 2.0)
        return mgf * (sps.norm.sf((eps - mean) / s) + sps.norm.cdf((-eps - mean) / s))
    t0, t1 = float(theta[0]), float(theta[0] + tau[0])
    if family == "bernoulli":
        atoms = ((t0, t1), (1.0 - t0, 1.0 - t1))
        return sum(p0 * (p1 / p0) ** gamma for p0, p1 in atoms if abs(math.log(p1 / p0)) > eps)
    if family == "exponential":
        # L(x) = log(t1/t0) - (t1 - t0) x is monotone in x: |L| > eps on x < x_lo and
        # x > x_hi for the two roots of |L| = eps, and the integrand is t0 e^{gamma c - k x}
        c, slope = math.log(t1 / t0), t1 - t0
        x_lo, x_hi = sorted(((c - eps) / slope, (c + eps) / slope))
        k = t0 + gamma * slope
        left = (1.0 - math.exp(-k * x_lo)) / k if x_lo > 0.0 else 0.0
        right = math.exp(-k * max(x_hi, 0.0)) / k
        return t0 * math.exp(gamma * c) * (left + right)
    raise ValueError(family)


@pytest.mark.parametrize(
    "family, theta0, u_n, eps",
    [
        ("gaussian", [0.0], 0.1, 0.5),
        ("gaussian2", [0.0, 0.0], 0.1, 0.5),
        ("exponential", [1.0], 0.1, 0.5),
        ("bernoulli", [0.5], 0.1, 0.1),  # small eps: some atoms pass the threshold
    ],
)
def test_moment_b_matches_closed_form(family, theta0, u_n, eps):
    fam = get_family(family)
    axes = np.eye(fam.d)
    taus = [s * m * u_n * e for m in (0.5, 1.0, 1.5) for s in (1, -1) for e in axes]
    rep = check_moment_b(fam, theta0, u_n, eps, 1.5, taus)
    assert rep.verdict == "pass"
    assert rep.parameters["max_value"] > 1e-7
    for w in rep.witnesses:
        want = _lr_moment_closed_form(family, w.input["theta"], w.input["tau"], eps, 1.5)
        assert w.value == pytest.approx(want, rel=1e-6, abs=1e-8), w.input


def test_moment_b_laplace_vanishes_when_tau_below_eps():
    # the Laplace log ratio is bounded by |tau|, so no x passes eps >= |tau|
    rep = check_moment_b(get_family("laplace"), 0.0, 0.1, 0.5, 1.5, [0.05, 0.1, -0.15])
    assert rep.verdict == "pass"
    assert [w.value for w in rep.witnesses] == [0.0] * 3  # theta0 alone per tau


@pytest.mark.parametrize(
    "family, u_n, eps", [("gaussian", 0.1, 0.05), ("laplace", 0.5, 0.2), ("gaussian2", 0.1, 0.05)]
)
def test_moment_b_location_scan_matches_full_scan(family, u_n, eps):
    fam = get_family(family)
    theta0 = np.full(fam.d, 0.3)
    # three taus: the full scan's 3 (2d + 1) witnesses are all reported
    taus = [m * u_n * e for m, e in zip((0.5, -1.0, 1.5), np.eye(fam.d)[[0, -1, 0]])]
    rep = check_moment_b(fam, theta0, u_n, eps, 1.5, taus)
    full = check_moment_b(_full_scan(fam), theta0, u_n, eps, 1.5, taus)
    assert len(rep.witnesses) == len(taus)
    assert len(full.witnesses) == len(taus) * (2 * fam.d + 1)
    for w in rep.witnesses:
        np.testing.assert_array_equal(w.input["theta"], theta0)
        same_tau = [v.value for v in full.witnesses if np.array_equal(v.input["tau"], w.input["tau"])]
        assert w.value > 0.0
        assert w.value == pytest.approx(max(same_tau), rel=1e-12, abs=0.0)
    assert rep.parameters["max_value"] == pytest.approx(
        full.parameters["max_value"], rel=1e-12, abs=0.0
    )


def test_moment_b_overflow_guard_makes_verdict_inconclusive():
    # gamma = 400: the tilted integrand passes e^690 and diverges for tau < 0
    rep = check_moment_b(get_family("exponential"), [1.0], 0.5, 0.5, 400.0, [0.9, -0.9])
    assert rep.verdict == "inconclusive"
    assert rep.parameters["overflow_guard"] is True


def test_moment_b_validation():
    with pytest.raises(GridError):
        check_moment_b(GAUSS, 0.0, 0.1, -1.0, 1.5, [0.1])
    with pytest.raises(GridError):
        check_moment_b(GAUSS, 0.0, 0.1, 0.5, 0.5, [0.1])
    with pytest.raises(DomainError):
        check_moment_b(GAUSS, [0.0, 0.0], 0.1, 0.5, 1.5, [0.1])
    with pytest.raises(GridError):
        # theta0 lies in the domain, but no theta0 +- u_n + tau does
        check_moment_b(get_family("bernoulli"), [0.985], 0.01, 0.5, 1.5, [[0.019]])


def test_exp_moment_matches_closed_form():
    rep = check_exp_moment(GAUSS, 0.0, lambda x: np.abs(x), 1.0)
    # worst neighborhood point is theta = +-1; E_m e^{|X|} in closed form
    m = 1.0
    want = math.exp(0.5 + m) * sps.norm.cdf(m + 1) + math.exp(0.5 - m) * sps.norm.cdf(1 - m)
    assert rep.verdict == "pass"
    assert rep.witnesses[0].value == pytest.approx(want, abs=1e-8)


def test_exp_moment_planar_abs_envelope_matches_radial_form():
    # |x| is kinked at 0, the centre of the planar window
    fam = get_family("gaussian2")
    gamma = 0.1
    rep = check_exp_moment(fam, [0.0, 0.0], lambda x: np.linalg.norm(x, axis=-1), gamma)
    c = float(np.linalg.norm(rep.witnesses[0].input["theta"]))
    assert c == pytest.approx(1.0, abs=1e-12)  # the farthest neighborhood points

    # E exp(gamma |X|) for X ~ N(theta, I_2), |theta| = c, integrated over the
    # angle: e^{-(r^2 + c^2)/2} I0(rc) = e^{-(r - c)^2/2} i0e(rc)
    def radial(r):
        return math.exp(gamma * r - 0.5 * (r - c) ** 2) * r * special.i0e(r * c)

    want, _ = integrate.quad(radial, 0.0, np.inf, epsabs=1e-13, epsrel=1e-13)
    assert rep.verdict == "pass"
    assert rep.witnesses[0].value == pytest.approx(want, rel=1e-9, abs=0.0)


def test_exp_moment_rejects_divergent_envelope():
    with pytest.raises(DivergenceError):
        check_exp_moment(GAUSS, 0.0, lambda x: np.asarray(x) ** 2, 1.0)
    with pytest.raises(GridError):
        check_exp_moment(GAUSS, 0.0, lambda x: np.abs(x), 0.0)
    with pytest.raises(DomainError):
        check_exp_moment(GAUSS, [50.0], lambda x: np.abs(x), 0.1)


def _planar_moment_per_ray(fam, theta, log_h, g, t, span):
    """The planar truncated moment with one _crossings scan per ray."""
    reach = min(span, 60.0)
    nodes, wts = np.polynomial.legendre.leggauss(24)
    radii = np.linspace(0.0, reach, conditions._SCAN_NODES)
    points, weights = [], []
    for direction in conditions._RAY_DIRECTIONS:

        def ray(r, direction=direction):
            return theta + np.multiply.outer(r, direction)

        edges = [0.0] + conditions._crossings(lambda r: np.abs(g(ray(r))) - t, radii) + [reach]
        for a, b in zip(edges[:-1], edges[1:]):
            if b - a < 1e-12 or abs(g(ray(0.5 * (a + b)))) <= t:
                continue
            panel_edges = np.linspace(a, b, max(1, math.ceil(b - a)) + 1)
            half = 0.5 * np.diff(panel_edges)[:, None]
            r = (half * nodes + (panel_edges[:-1, None] + half)).ravel()
            points.append(ray(r))
            weights.append((half * wts).ravel() * r)
    x = np.concatenate(points)
    e = np.where(np.abs(g(x)) > t, log_h(x) + fam.log_density(x, theta), -np.inf)
    return float(np.exp(e) @ np.concatenate(weights)) * (2.0 * math.pi / conditions._RAYS)


@pytest.mark.parametrize("theta", ([0.0, 0.0], [0.1, -0.1]))
@pytest.mark.parametrize("tau", ([0.05, 0.0], [0.0, -0.15], [0.1, 0.1]))
def test_planar_b_moment_equals_per_ray_scan(theta, tau):
    fam = get_family("gaussian2")
    theta, t1 = np.array(theta), np.add(theta, tau)

    def log_lr(x):
        return fam.log_density(x, t1) - fam.log_density(x, theta)

    span = 2.0 * 0.5 / float(np.linalg.norm(tau)) + 60.0
    got, over = conditions._truncated_moment(
        fam, theta, lambda x: 1.5 * log_lr(x), log_lr, 0.5, span
    )
    assert not over
    assert got == _planar_moment_per_ray(fam, theta, lambda x: 1.5 * log_lr(x), log_lr, 0.5, span)


@pytest.mark.parametrize("u", (0.5, 0.3, 0.25))  # at 0.25 a crossing is a scan node
def test_planar_c1b_moment_equals_per_ray_scan(u):
    fam = get_family("gaussian2")
    theta = np.zeros(2)

    def phi_norm(x):
        return np.linalg.norm(fam.score_phi(x, theta), axis=-1)

    def log_phi2(x):
        return 2.0 * np.log(phi_norm(x))

    thr = 2.75 / u
    span = 14.0 + 8.0 * (thr + 1.0)
    got, _ = conditions._truncated_moment(fam, theta, log_phi2, phi_norm, thr, span)
    assert got > 0.0
    assert got == _planar_moment_per_ray(fam, theta, log_phi2, phi_norm, thr, span)


# ---------------------------------------------------------------------------
# C1/C2 decay
# ---------------------------------------------------------------------------


def test_c_gaussian_exponents_and_truncated_moment():
    rep = check_c(GAUSS, 0.0, (0.2, 0.1, 0.05, 0.02), gamma=1.0, lam=1.0)
    assert rep.verdict == "pass"
    assert 3.8 <= rep.parameters["c2_loglog_exponent"] <= 4.2
    assert rep.parameters["c1_loglog_slope"] >= 0.9
    # E[phi^2 1(|phi| > 2.5)] for phi = x/2: tail moment of the standard normal
    w = next(
        w
        for w in rep.witnesses
        if isinstance(w.input, dict) and w.input.get("quantity") == "truncated_phi2"
    )
    want = 0.5 * (5.0 * sps.norm.pdf(5.0) + sps.norm.sf(5.0))
    assert w.value == pytest.approx(want, rel=1e-10)


def _truncated_phi2(witnesses):
    return [w.value for w in witnesses if w.input.get("quantity") == "truncated_phi2"]


def test_c_truncated_moment_keeps_a_root_on_a_scan_node():
    # at u = 0.25, eps/u = 11 puts the crossing |phi| = 11 at |x| = 22, a node
    # of the scan grid: E[phi^2 1(|phi| > t)] = (a pdf(a) + sf(a)) / 2 at a = 2t
    rep = check_c(GAUSS, 0.0, (0.3, 0.25, 0.2), 1.0, 1.0, eps=2.75)
    for u, got in zip((0.3, 0.25, 0.2), _truncated_phi2(rep.witnesses)):
        a = 2.0 * 2.75 / u
        assert got == pytest.approx(0.5 * (a * sps.norm.pdf(a) + sps.norm.sf(a)), rel=1e-6)


def test_c_exponential_truncated_moment_matches_closed_form():
    # phi = (1 - x)/2 at theta = 1, so |phi| > eps/u above x = 1 + a with
    # a = 2 eps/u: E[phi^2 1(X > 1 + a)] = (a^2 + 2a + 2) e^{-(1 + a)} / 4
    u = (0.2, 0.1, 0.05, 0.02)
    rep = check_c(get_family("exponential"), [1.0], u, 1.0, 1.0)
    for uk, got in zip(u, _truncated_phi2(rep.witnesses)):
        a = 2.0 * 0.5 / uk
        want = (a * a + 2.0 * a + 2.0) * math.exp(-(1.0 + a)) / 4.0
        assert got == pytest.approx(want, rel=1e-8 if want > 1e-10 else 1e-5, abs=0.0), uk


def test_c_planar_truncated_moment_matches_chi2_tail():
    # |phi|^2 = R^2/4 with R^2 ~ chi2_2: E[|phi|^2 1(R > a)] = (a^2/2 + 1) e^{-a^2/2} / 2;
    # at u = 0.25 the crossing R = 22 was lost as a node of the old radial scan
    rep = check_c(get_family("gaussian2"), [0.0, 0.0], (0.5, 0.25, 0.125), 1.0, 1.0, eps=2.75)
    for u, got in zip((0.5, 0.25, 0.125), _truncated_phi2(rep.witnesses)):
        a = 2.0 * 2.75 / u
        assert got == pytest.approx(0.5 * (a * a / 2.0 + 1.0) * math.exp(-a * a / 2.0), rel=1e-6)


def test_c_integrands_stay_finite_in_the_far_tail():
    # exp((l1 - l0)/2) alone overflows where the density underflows at u = 0.5;
    # E g^2 = 2 (1 - e^{-tau^2/8}) lies below tau' I tau / 4 = tau^2 / 4
    u = (0.5, 0.25, 0.125)
    rep = check_c(GAUSS, 0.0, u, 1.0, 1.0, eps=2.75)
    diffs = [w for w in rep.witnesses if w.input.get("quantity") == "c2_diff"]
    assert [w.input["tau"] for w in diffs] == list(u)
    for w in diffs:
        tau = w.input["tau"]
        assert tau * tau / 4.0 - w.value == pytest.approx(
            2.0 * (1.0 - math.exp(-tau * tau / 8.0)), rel=0, abs=1e-10
        )


def test_crossings_count_a_root_on_a_node():
    from modev.conditions import _crossings

    grid = np.linspace(0.0, 2.0, 5)
    assert _crossings(lambda s: s - 1.0, grid) == [1.0]  # on the node 1.0
    assert _crossings(lambda s: s - 1.25, grid) == [pytest.approx(1.25, abs=1e-12)]


def _brentq_roots(fn, grid):
    """The scalar oracle: a root on a node, and brentq in every sign change."""
    from scipy import optimize

    v = fn(grid)
    roots = list(grid[v == 0.0])
    for i in np.nonzero(v[:-1] * v[1:] < 0.0)[0]:
        roots.append(optimize.brentq(lambda s: float(fn(s)), grid[i], grid[i + 1], xtol=1e-12))
    return sorted(roots)


@pytest.mark.parametrize(
    "fn, grid",
    [
        # several roots along one ray, at k pi
        (np.sin, np.linspace(0.5, 40.0, 23)),
        # a root on a scan node (2.0) next to refined ones
        (lambda s: (s - 2.0) * (s - 4.3) * (s - 7.1), np.linspace(0.0, 10.0, 11)),
        # a steep root, plain ones, and one in a bracket kinked at 8
        (
            lambda s: np.tanh(8.0 * (s - 1.1)) * (s - 5.0) * (np.abs(s - 8.0) - 0.5),
            np.linspace(0.0, 9.0, 8),
        ),
    ],
)
def test_crossings_match_brentq(fn, grid):
    got = conditions._crossings(fn, grid)
    want = _brentq_roots(fn, grid)
    assert len(got) == len(want) >= 3
    np.testing.assert_allclose(got, want, rtol=0, atol=2e-12)


def test_refine_brackets_of_mixed_width_at_once():
    from scipy import optimize

    # row i's function is exp(s) - c_i, in brackets from 1e-9 to 100 wide
    c = np.array([1.5, 2.0, 30.0, 1e3, 7.25, 1e40])
    width = np.array([1e-9, 1e-3, 0.5, 3.0, 20.0, 100.0])
    lo = np.log(c) - 0.3 * width
    hi = lo + width
    calls = []

    def fn(x, i):
        calls.append(i.size)
        return np.exp(x) - c[i]

    got = conditions._refine(fn, lo, hi, np.exp(lo) - c, np.exp(hi) - c)
    for k in range(c.size):
        want = optimize.brentq(lambda s: math.exp(s) - c[k], lo[k], hi[k], xtol=1e-12)
        assert abs(got[k] - want) <= 2e-12, k
    # one call per round, on the brackets still open, far fewer than bisection's
    assert calls[0] == c.size and len(calls) < 40


def test_rows_refine_as_each_row_alone():
    # (ray, radius) rows refined together give the roots each row gives alone
    grid = np.linspace(0.0, 12.0, 40)
    freq = np.array([0.7, 1.0, 1.9])

    def fn(x, rows):
        return np.sin(freq[rows] * x) - 0.2

    rows, roots = conditions._row_crossings(fn, grid, fn(grid[None, :], np.arange(3)[:, None]))
    for k in range(3):
        alone = conditions._crossings(lambda x: np.sin(freq[k] * x) - 0.2, grid)
        assert roots[rows == k].tolist() == alone
        np.testing.assert_allclose(
            alone, _brentq_roots(lambda x: np.sin(freq[k] * x) - 0.2, grid), rtol=0, atol=2e-12
        )


def test_planar_b_witnesses_are_invariant_under_quarter_turns():
    # gaussian2 is isotropic, and the rays map onto each other under a
    # quarter turn, so tau of one length gives one moment on every axis
    fam = get_family("gaussian2")
    for a in (0.05, 0.1, 0.15):
        taus = [[a, 0.0], [0.0, a], [-a, 0.0], [0.0, -a]]
        rep = check_moment_b(fam, [0.0, 0.0], 0.2, 0.5, 1.5, taus)
        vals = np.array([w.value for w in rep.witnesses])
        assert vals.min() > 0.0
        assert (vals.max() - vals.min()) <= 1e-14 * vals.max(), a


def test_c_planar_gaussian_exponents():
    fam = get_family("gaussian2")
    rep = check_c(fam, np.zeros(2), (0.2, 0.1, 0.05, 0.02), gamma=1.0, lam=1.0)
    assert rep.verdict == "pass"
    assert 3.8 <= rep.parameters["c2_loglog_exponent"] <= 4.2


def test_c_grid_validation():
    with pytest.raises(GridError):
        check_c(GAUSS, 0.0, (0.02, 0.1, 0.2), gamma=1.0, lam=1.0)  # increasing
    with pytest.raises(GridError):
        check_c(GAUSS, 0.0, (0.2, 0.1), gamma=1.0, lam=1.0)  # too short


# ---------------------------------------------------------------------------
# gradient moment (D) and centered log-ratio moments (E)
# ---------------------------------------------------------------------------


def test_d_gaussian_worst_moment():
    rep = check_d(GAUSS, 3.0)
    assert rep.verdict == "pass"
    assert rep.witnesses[0].value == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), abs=1e-8)


def test_d_planar_gaussian_kinked_moment():
    # |x - theta|^3 is kinked at theta, the centre of each planar window;
    # |X - theta|^2 is chi-square with 2 degrees of freedom at every theta
    rep = check_d(get_family("gaussian2"), 3.0)
    assert rep.verdict == "pass"
    assert rep.witnesses[0].value == pytest.approx(2.0**1.5 * math.gamma(2.5), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("family", ("gaussian", "laplace", "gaussian2"))
def test_d_location_scan_matches_full_scan(family):
    fam = get_family(family)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonDifferentiableWarning)
        rep = check_d(fam, 3.0)
        full = check_d(_full_scan(fam), 3.0)
    np.testing.assert_array_equal(rep.witnesses[0].input["theta"], fam.theta_domain.lo + 2e-8)
    assert rep.witnesses[0].value == pytest.approx(full.witnesses[0].value, rel=1e-12, abs=0.0)


def test_d_laplace_warns_once_about_ae_gradient():
    fam = get_family("laplace")
    with pytest.warns(NonDifferentiableWarning):
        rep = check_d(fam, 3.0)
    assert rep.verdict == "pass"
    # |grad log f| = 1 a.e., so every moment equals 1
    assert rep.witnesses[0].value == pytest.approx(1.0, abs=1e-6)


def test_d_rejects_small_m():
    with pytest.raises(GridError):
        check_d(GAUSS, 1.0)
    with pytest.raises(GridError):
        check_d(get_family("gaussian2"), 2.0)


def test_e_gaussian_constant_residual():
    # for the location family the centered log ratio minus the score term is
    # the deterministic constant (v^2 - u^2)/2
    rep = check_e(GAUSS, 0.0, 1e6, 2.0, 2.0, [(0.0, 0.1)])
    assert rep.verdict == "pass"
    assert rep.parameters["fitted_C"] == pytest.approx(0.0025, rel=1e-9)


def test_e_validation():
    with pytest.raises(GridError):
        check_e(GAUSS, 0.0, 1e6, 1.0, 2.0, [(0.0, 0.1)])
    with pytest.raises(GridError):
        check_e(GAUSS, 0.0, 1e6, 2.0, 2.0, [(0.0, 20.0)])  # leaves the domain
    with pytest.raises(DomainError):
        check_e(GAUSS, [50.0], 1e6, 2.0, 2.0, [(0.0, 0.1)])


# ---------------------------------------------------------------------------
# loss regularity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", (1.0, 2.0))
def test_loss_certifies_power_laws(p):
    rep = check_loss(LossSpec.power(p), (1.5, 2.0, 3.0, 5.0), (0.1, 0.5, 1.0, 2.0))
    assert rep.verdict == "pass"
    assert rep.parameters["kappa1"] == pytest.approx(p, abs=1e-9)
    assert rep.parameters["C1"] == pytest.approx(1.0, abs=1e-9)


def test_loss_linear_increment():
    rep = check_loss(LossSpec.linear(), (1.5, 2.0), (0.5, 1.0))
    assert rep.verdict == "pass"
    # l1(ax)/l1(x) - 1 = a - 1 exactly
    assert rep.parameters["kappa2"] == pytest.approx(1.0, abs=1e-9)
    assert rep.parameters["C2"] == pytest.approx(1.0, abs=1e-9)


def test_loss_rejects_non_monotone_table():
    loss = LossSpec.table([0.0, 1.0, 2.0], [0.0, 1.0, 0.5])
    with pytest.raises(MonotoneError):
        check_loss(loss, (1.5, 2.0), (0.5, 1.0))


def test_loss_table_validation():
    with pytest.raises(GridError):
        LossSpec.table([0.5, 1.0], [0.0, 1.0])  # must start at x = 0
    with pytest.raises(GridError):
        LossSpec.table([0.0, 1.0], [0.5, 1.0])  # must start at l1 = 0
    with pytest.raises(GridError):
        check_loss(LossSpec.power(2.0), (0.5, 2.0), (0.5, 1.0))  # a <= 1
