"""Rare-event estimator tests: exact tail oracles, importance sampling
agreement, determinism, and the sweep drivers."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats as sps
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from modev import (
    Budget,
    BudgetError,
    DegenerateWeightsWarning,
    DeviationSchedule,
    DiscrepancyEvent,
    DomainError,
    GridError,
    BayesEvent,
    LossSpec,
    MleEvent,
    PosteriorMassEvent,
    PriorSpec,
    ProbEstimate,
    PsiEvent,
    RatePoint,
    RegionSpec,
    TiltDomainError,
    bahadur_sweep,
    chunk_bounds,
    chunk_size,
    equivalence_tail,
    estimate_prob,
    fisher_information,
    get_family,
    ldp_curve,
    rep_rng,
)
from modev import rarevent, sampling
from modev.estimators import default_posterior_box, grid_nodes
from modev.families import GaussianLocation
from modev.lan import truncated_points

HALF = lambda c: RegionSpec("half_space", d=1, a=np.array([1.0]), c=c)


class _GaussianFullSamples(GaussianLocation):
    """gaussian without its truncation law: psi draws full samples.  Module
    level, so that a process pool can unpickle it."""

    def log_score_tail(self, theta0, thetas, t):
        return None


# ---------------------------------------------------------------------------
# exact tail oracles
# ---------------------------------------------------------------------------


def test_exact_gaussian_half_space_tail():
    fam = get_family("gaussian")
    r = estimate_prob(MleEvent(HALF(1.0)), fam, np.zeros(1), 400, 0.15, method="exact")
    # sqrt(n) u_n c = 3
    assert r.log_p == pytest.approx(float(sps.norm.logsf(3.0)), rel=1e-14)
    assert r.method == "exact"
    assert r.stderr_log == 0.0
    assert r.n_reps == 0
    assert not r.upper_bound


def test_closed_forms_follow_the_family_class_not_its_name():
    fam = get_family("gaussian")
    renamed = replace(fam, name="renamed")
    n, u = 256, 256**-0.25
    mle, mass = MleEvent(HALF(1.0)), PosteriorMassEvent(HALF(1.0))
    exact = [estimate_prob(mle, f, np.zeros(1), n, u, method="exact") for f in (fam, renamed)]
    assert exact[1].log_p == exact[0].log_p
    # the renamed family's posterior mass reads the conjugate CDF, not a grid
    mc = [estimate_prob(mass, f, np.zeros(1), n, u, n_reps=2000, seed=3) for f in (fam, renamed)]
    assert mc[1] == mc[0]


def test_exact_gaussian_complement_ball_tail():
    fam = get_family("gaussian")
    region = RegionSpec("complement_ball", d=1, r=1.0)
    r = estimate_prob(MleEvent(region), fam, np.zeros(1), 400, 0.15, method="exact")
    assert r.log_p == pytest.approx(math.log(2.0 * float(sps.norm.sf(3.0))), rel=1e-12)


def test_exact_bernoulli_matches_atom_sum():
    fam = get_family("bernoulli")
    r = estimate_prob(MleEvent(HALF(1.0)), fam, np.array([0.4]), 200, 0.2, method="exact")
    # independent enumeration: (k/n - theta0) / (sigma u_n) > 1, open inequality
    s = math.sqrt(0.4 * 0.6)
    k = np.arange(201)
    mask = (k / 200.0 - 0.4) / (s * 0.2) > 1.0
    want = math.log(float(sps.binom.pmf(k[mask], 200, 0.4).sum()))
    assert r.log_p == pytest.approx(want, rel=1e-12)


def test_exact_bernoulli_psi_guards_active_truncation():
    fam = get_family("bernoulli")
    # at theta0 = 1/2 the score envelope is 1; eps/u_n = 0.5/0.6 < 1 clips it
    with pytest.raises(DomainError):
        estimate_prob(PsiEvent(HALF(1.0)), fam, np.array([0.5]), 200, 0.6, method="exact", eps=0.5)
    ok = estimate_prob(PsiEvent(HALF(1.0)), fam, np.array([0.5]), 200, 0.2, method="exact", eps=0.5)
    assert math.isfinite(ok.log_p) and ok.log_p < 0


def test_exact_bernoulli_psi_matches_atom_sum():
    # independent enumeration: with k ones, psi = (k - n theta0) / (2 sqrt(n
    # theta0 (1 - theta0))) and W = 2 psi / (sqrt(n) u_n) - I^{1/2} b, with
    # I^{1/2} = 1 / sqrt(theta0 (1 - theta0)); open inequalities, and an eps
    # large enough that the truncation cannot bind
    fam = get_family("bernoulli")
    for theta0, b in ((0.3, 0.5), (0.7, -0.5), (0.2, 1.0)):
        var = theta0 * (1.0 - theta0)
        for n in (50, 200, 1001):
            u = n ** -0.25
            theta_gen = theta0 + u * b
            k = np.arange(n + 1)
            psi = (k - n * theta0) / (2.0 * math.sqrt(n * var))
            w = 2.0 * psi / (math.sqrt(n) * u) - b / math.sqrt(var)
            for a, c in ((1.0, 1.0), (-1.0, 0.5)):
                mask = a * w > c
                want = float(logsumexp(sps.binom.logpmf(k[mask], n, theta_gen)))
                region = RegionSpec("half_space", d=1, a=np.array([a]), c=c)
                r = estimate_prob(PsiEvent(region), fam, np.array([theta0]), n, u,
                                  b=np.array([b]), method="exact", eps=2.0)
                assert r.log_p == pytest.approx(want, rel=1e-12)
                assert r.method == "exact"


def test_exact_exponential_gamma_tail():
    fam = get_family("exponential")
    r = estimate_prob(MleEvent(HALF(1.0)), fam, np.array([1.0]), 50, 0.3, method="exact")
    # rate estimate 1/xbar exceeds 1 + u_n iff the draw total falls below n/(1+u_n)
    want = float(sps.gamma.logcdf(50.0 / 1.3, a=50, scale=1.0))
    assert r.log_p == pytest.approx(want, rel=1e-12)


def test_exact_laplace_median_tail_is_a_binomial_sum():
    # P(median > theta_gen + u c) for odd n: at least (n + 1) / 2 of the n
    # draws pass it, each with probability q; the other direction mirrors it
    fam = get_family("laplace")
    for n, u, c in ((257, 0.2, 1.0), (1025, 0.1, 1.5), (4097, 0.06, -0.5), (65, 0.3, 0.0)):
        s = u * c
        q = 0.5 * math.exp(-s) if s >= 0 else 1.0 - 0.5 * math.exp(s)
        k = np.arange((n + 1) // 2, n + 1)
        log_pmf = (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
                   + k * math.log(q) + (n - k) * math.log1p(-q))
        want = float(logsumexp(log_pmf))
        for a in (1.0, -1.0):
            region = RegionSpec("half_space", d=1, a=np.array([a]), c=c)
            r = estimate_prob(MleEvent(region), fam, np.array([0.3]), n, u, b=np.array([0.5]),
                              method="exact")
            assert r.log_p == pytest.approx(want, rel=1e-10, abs=1e-12)
            assert r.method == "exact" and r.stderr_log == 0.0
    with pytest.raises(DomainError, match="odd n"):
        estimate_prob(MleEvent(HALF(1.0)), fam, np.zeros(1), 256, 0.2, method="exact")


def test_exact_gaussian_box_tails_keep_their_digits():
    # at n = 6400 and u_n = n^(-1/4) the box [1, 3] and the exterior of
    # [-1, 1] have probabilities near 1e-19, where 1 - P(box) and a difference
    # of distribution functions lose every digit
    fam = get_family("gaussian")
    n = 6400
    u = n ** -0.25
    z = math.sqrt(n) * u
    box = RegionSpec("box", d=1, lo=np.array([1.0]), hi=np.array([3.0]))
    cbox = RegionSpec("complement_box", d=1, lo=np.array([-1.0]), hi=np.array([1.0]))
    got_box = estimate_prob(MleEvent(box), fam, np.zeros(1), n, u, method="exact").log_p
    got_cbox = estimate_prob(MleEvent(cbox), fam, np.zeros(1), n, u, method="exact").log_p
    want_box = float(sps.norm.logsf(z)) + math.log(
        -math.expm1(float(sps.norm.logsf(3.0 * z) - sps.norm.logsf(z))))
    want_cbox = math.log(2.0) + float(sps.norm.logsf(z))
    assert got_box == pytest.approx(want_box, rel=1e-12)
    assert got_cbox == pytest.approx(want_cbox, rel=1e-12)
    assert round(got_box, 3) == -43.122 and round(got_cbox, 3) == -42.429
    # the same on the plane, where both axes share the exterior
    cbox2 = RegionSpec("complement_box", d=2, lo=np.array([-1.0, -1.0]), hi=np.array([1.0, 1.0]))
    got2 = estimate_prob(MleEvent(cbox2), get_family("gaussian2"), np.zeros(2), n, u,
                         method="exact").log_p
    assert got2 == pytest.approx(math.log(4.0) + float(sps.norm.logsf(z)), rel=1e-12)


def test_exact_gaussian_box_tails_below_and_across_zero():
    # a box below 0 reads the lower tail, one across 0 the difference of
    # distribution functions; a box mirrored through 0 has the same tail
    fam = get_family("gaussian")
    n = 400
    u = n ** -0.25
    z = math.sqrt(n) * u

    def exact(lo, hi):
        box = RegionSpec("box", d=1, lo=np.array([lo]), hi=np.array([hi]))
        return estimate_prob(MleEvent(box), fam, np.zeros(1), n, u, method="exact").log_p

    for lo, hi in ((-2.0, -1.0), (-1.0, 1.0), (-0.5, 2.0)):
        want = math.log(float(sps.norm.cdf(hi * z) - sps.norm.cdf(lo * z)))
        assert exact(lo, hi) == pytest.approx(want, rel=1e-12)
    assert exact(-40.0, -38.0) == exact(38.0, 40.0) == -14446.054425452758


def test_exact_bayes_tails_refuse_a_gaussian_prior_and_other_losses():
    fam = get_family("gaussian")
    prior = PriorSpec.gaussian([0.1], 0.2)
    for event, kind in ((BayesEvent(HALF(1.0), prior), "BayesEvent"),
                        (PosteriorMassEvent(HALF(1.0), prior=prior), "PosteriorMassEvent")):
        with pytest.raises(DomainError, match=f"exact {kind} tails need a flat prior"):
            estimate_prob(event, fam, np.zeros(1), 400, 0.15, method="exact")
    with pytest.raises(DomainError, match="exact Bayes tails need squared or 1-d absolute loss"):
        estimate_prob(BayesEvent(HALF(1.0), loss=LossSpec.power(3.0)), fam, np.zeros(1), 400,
                      0.15, method="exact")


# ---------------------------------------------------------------------------
# Monte Carlo against the oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", (400, 6400))
def test_tilted_symmetric_complement_box_matches_exact_tail(n):
    # both faces of [-1, 1] are nearest; a tilt toward one of them alone
    # leaves half of the event unsampled and reads about log 2 low
    fam = get_family("gaussian")
    u = n ** -0.25
    event = MleEvent(RegionSpec("complement_box", d=1, lo=np.array([-1.0]), hi=np.array([1.0])))
    ex = estimate_prob(event, fam, np.zeros(1), n, u, method="exact")
    for seed in range(8):
        r = estimate_prob(event, fam, np.zeros(1), n, u, n_reps=2500, seed=seed)
        assert abs(r.log_p - ex.log_p) <= 3.0 * r.stderr_log, seed


def test_tilted_matches_exact_gaussian():
    fam = get_family("gaussian")
    ex = estimate_prob(MleEvent(HALF(1.0)), fam, np.zeros(1), 400, 0.15, method="exact")
    r = estimate_prob(
        MleEvent(HALF(1.0)), fam, np.zeros(1), 400, 0.15, method="tilted", n_reps=20000, seed=11
    )
    assert abs(r.log_p - ex.log_p) <= 3.0 * r.stderr_log
    assert r.method == "tilted"
    assert r.stderr_log < 0.05  # the tilt has to beat crude sampling handily


def test_crude_matches_exact_gaussian():
    fam = get_family("gaussian")
    ex = estimate_prob(MleEvent(HALF(1.0)), fam, np.zeros(1), 400, 0.15, method="exact")
    r = estimate_prob(
        MleEvent(HALF(1.0)), fam, np.zeros(1), 400, 0.15, method="crude", n_reps=20000, seed=11
    )
    assert abs(r.log_p - ex.log_p) <= 3.0 * r.stderr_log


def test_tilted_mixture_covers_two_dominant_points():
    # complement of a ball has two nearest points; the sampler must mix both
    fam = get_family("gaussian")
    region = RegionSpec("complement_ball", d=1, r=1.0)
    ex = estimate_prob(MleEvent(region), fam, np.zeros(1), 400, 0.15, method="exact")
    r = estimate_prob(
        MleEvent(region), fam, np.zeros(1), 400, 0.15, method="tilted", n_reps=20000, seed=3
    )
    assert abs(r.log_p - ex.log_p) <= 3.0 * r.stderr_log


def test_tilted_matches_exact_exponential():
    fam = get_family("exponential")
    ex = estimate_prob(MleEvent(HALF(1.0)), fam, np.array([1.0]), 50, 0.3, method="exact")
    r = estimate_prob(
        MleEvent(HALF(1.0)), fam, np.array([1.0]), 50, 0.3, method="tilted", n_reps=20000, seed=9
    )
    assert abs(r.log_p - ex.log_p) <= 3.0 * r.stderr_log


def test_crude_matches_exact_bernoulli():
    fam = get_family("bernoulli")
    ex = estimate_prob(MleEvent(HALF(1.0)), fam, np.array([0.4]), 200, 0.2, method="exact")
    r = estimate_prob(
        MleEvent(HALF(1.0)), fam, np.array([0.4]), 200, 0.2, method="crude", n_reps=20000, seed=2
    )
    assert abs(r.log_p - ex.log_p) <= 3.0 * r.stderr_log


def test_crude_nested_regions_monotone_under_shared_seed():
    # identical replication streams: a smaller region can only lose hits
    fam = get_family("gaussian")
    kw = dict(method="crude", n_reps=20000, seed=5)
    outer = estimate_prob(MleEvent(HALF(1.0)), fam, np.zeros(1), 400, 0.15, **kw)
    inner = estimate_prob(MleEvent(HALF(1.2)), fam, np.zeros(1), 400, 0.15, **kw)
    assert inner.p_hat <= outer.p_hat
    assert inner.p_hat > 0


def test_deep_tail_stays_usable_in_log_domain():
    # p ~ exp(-454): far below float underflow for p itself.  Tilted to the
    # dominating point the weights stay healthy on every seed of the range.
    fam = get_family("gaussian")
    ex = estimate_prob(MleEvent(HALF(1.0)), fam, np.zeros(1), 10000, 0.3, method="exact")
    assert ex.log_p == pytest.approx(float(sps.norm.logsf(30.0)), rel=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateWeightsWarning)
        for seed in range(7, 47):
            r = estimate_prob(
                MleEvent(HALF(1.0)), fam, np.zeros(1), 10000, 0.3,
                method="tilted", n_reps=2000, seed=seed,
            )
            assert math.isfinite(r.log_p)
            assert abs(r.log_p - ex.log_p) <= 4.0 * r.stderr_log, seed


def test_overshot_tilt_warns_about_degenerate_weights(monkeypatch):
    # a tilt three times past the dominating point puts every replication in
    # the event, with weights so uneven that a handful of them carry the sum
    fam = get_family("gaussian")

    def overshot(fam, region, theta_gen, u_n, i_inv_sqrt):
        return [theta_gen + 3.0 * u_n * (i_inv_sqrt @ region.nearest_points()[0])]

    monkeypatch.setattr(rarevent, "_deviation_tilts", overshot)
    with pytest.warns(DegenerateWeightsWarning):
        estimate_prob(
            MleEvent(HALF(1.0)), fam, np.zeros(1), 400, 0.3,
            method="tilted", n_reps=2000, seed=0,
        )


def test_tiny_tilt_shift_keeps_its_weights():
    # a 1e-9 shift lies inside allclose's absolute tolerance, yet its weights
    # are exp((theta_gen - comp) S + n (comp^2 - theta_gen^2) / 2), not 1
    fam = get_family("gaussian")
    n, reps, shift, seed = 400, 500, 1e-9, 3
    theta_gen = np.zeros(1)
    comp = theta_gen + shift
    # every replication lies in the half-space W > -1e6, so the hit sum is
    # the sum over all weights
    pt = rarevent._Point(
        fam, MleEvent(HALF(-1e6)), theta_gen, theta_gen, n, 0.15, np.zeros(1), 0.5,
        fisher_information(fam, theta_gen), seed, 0, (comp,),
    )
    hits, lw_hit = rarevent._sim_chunk(0, reps, pt)[:2]
    assert hits == reps
    stats = fam.draw_stats(rep_rng(seed, 0, 0), np.repeat(comp[None], reps, axis=0), n)
    logw = -shift * stats[:, 0] + 0.5 * n * shift**2
    assert abs(lw_hit - logsumexp(logw)) < 1e-13
    assert abs(lw_hit - math.log(reps)) > 1e-11


def test_budget_entries_must_be_at_least_one():
    with pytest.raises(GridError, match="n_reps must be at least 1"):
        Budget(n_reps=0)
    with pytest.raises(GridError, match="min_reps must be at least 1"):
        Budget(min_reps=0)
    assert Budget(n_reps=2.0, max_total_draws=10, min_reps=1) == Budget(2, 10, 1)


def test_zero_hits_report_upper_bound():
    fam = get_family("gaussian")
    r = estimate_prob(
        MleEvent(HALF(2.0)), fam, np.zeros(1), 400, 0.15, method="crude", n_reps=1000, seed=0
    )
    assert r.upper_bound
    assert r.p_hat == 0.0
    assert r.log_p == pytest.approx(math.log(3.0 / 1000.0), rel=1e-12)
    assert r.stderr_log == math.inf


def test_crude_refuses_unresolvable_probability():
    fam = get_family("gaussian")
    with pytest.raises(BudgetError, match="tilted"):
        estimate_prob(
            MleEvent(HALF(1.0)), fam, np.zeros(1), 10000, 0.3, method="crude", n_reps=1000
        )


def test_tilt_leaving_parameter_domain_raises():
    # the tilt sits at theta0 + u_n sigma = 0.5 + 1.0 * 0.5 = 1, outside (0.01, 0.99)
    fam = get_family("bernoulli")
    with pytest.raises(TiltDomainError):
        estimate_prob(
            MleEvent(HALF(1.0)), fam, np.array([0.5]), 100, 1.0, method="tilted", n_reps=100
        )


def test_estimate_prob_validation():
    fam = get_family("gaussian")
    ev = MleEvent(HALF(1.0))
    with pytest.raises(DomainError):
        estimate_prob(ev, fam, np.zeros(1), 100, 0.1, b=np.array([1.0, 2.0]))
    with pytest.raises(GridError):
        estimate_prob(ev, fam, np.zeros(1), 100, 0.0)
    with pytest.raises(GridError):
        estimate_prob(ev, fam, np.zeros(1), 1, 0.1)
    with pytest.raises(GridError):
        estimate_prob(ev, fam, np.zeros(1), 100, 0.1, method="antithetic")
    for method in ("crude", "tilted"):
        with pytest.raises(GridError, match="n_reps"):
            estimate_prob(ev, fam, np.zeros(1), 64, 0.3, method=method, n_reps=0)
    # an exact tail draws nothing, so it reads no replication count
    exact = estimate_prob(ev, fam, np.zeros(1), 64, 0.3, method="exact", n_reps=0)
    assert exact.log_p == pytest.approx(float(sps.norm.logsf(8.0 * 0.3)), rel=1e-14)
    with pytest.raises(DomainError):
        # theta_gen = 0.9 + 0.5 leaves (0, 1)
        estimate_prob(ev, get_family("bernoulli"), np.array([0.9]), 100, 0.5, b=np.array([1.0]))


# ---------------------------------------------------------------------------
# statistic path against the full-sample path and the exact tails
# ---------------------------------------------------------------------------


def _samples_only(fam):
    """The same family without a statistic law: the kernel draws full samples."""
    cls = type(fam)
    return type(cls.__name__ + "Samples", (cls,), {"draw_stats": lambda self, rng, th, n: None})()


HALF2 = RegionSpec("half_space", d=2, a=np.array([0.6, 0.8]), c=1.0)
STAT_CASES = {
    "gaussian-mle": ("gaussian", [0.0], 400, 0.15, MleEvent(HALF(1.0))),
    "gaussian2-mle": ("gaussian2", [0.0, 0.0], 400, 0.15, MleEvent(HALF2)),
    "bernoulli-mle": ("bernoulli", [0.4], 200, 0.2, MleEvent(HALF(1.0))),
    "exponential-mle": ("exponential", [1.0], 50, 0.3, MleEvent(HALF(1.0))),
    "gaussian-bayes": ("gaussian", [0.0], 400, 0.15, BayesEvent(HALF(1.0), PriorSpec.flat())),
    "gaussian-bayes-absolute": ("gaussian", [0.0], 400, 0.15,
                                BayesEvent(HALF(1.0), PriorSpec.flat(), LossSpec.power(1.0))),
    "gaussian-mass": ("gaussian", [0.0], 400, 0.15, PosteriorMassEvent(HALF(1.0), 0.5)),
}


@pytest.mark.parametrize("case", sorted(STAT_CASES))
def test_statistic_path_matches_full_samples_and_exact_tail(case):
    name, theta0, n, u, event = STAT_CASES[case]
    fam = get_family(name)
    kw = dict(method="tilted", n_reps=4000, seed=21)
    ex = estimate_prob(event, fam, np.array(theta0), n, u, method="exact")
    fast = estimate_prob(event, fam, np.array(theta0), n, u, **kw)
    full = estimate_prob(event, _samples_only(fam), np.array(theta0), n, u, **kw)
    for r in (fast, full):
        assert not r.upper_bound
        assert abs(r.log_p - ex.log_p) <= 3.0 * r.stderr_log
    assert abs(fast.log_p - full.log_p) <= 3.0 * math.hypot(fast.stderr_log, full.stderr_log)


def test_gaussian_prior_bayes_matches_the_conjugate_tail():
    # the conjugate posterior mean (n xbar + m k) / (n + k), k = sd^-2, is
    # affine in xbar ~ N(0, 1/n): the event est > u is xbar > x*; a flat prior
    # would give log_ndtr(-3) = -6.61, about 7 stderr off
    fam = get_family("gaussian")
    n, u, m, sd = 400, 0.15, 0.1, 0.2
    k = sd**-2
    x_star = (u * (n + k) - m * k) / n
    exact = float(sps.norm.logsf(x_star * math.sqrt(n)))
    event = BayesEvent(HALF(1.0), PriorSpec.gaussian([m], sd), LossSpec.power(2.0))
    r = estimate_prob(event, fam, np.zeros(1), n, u, method="tilted", n_reps=4000, seed=21)
    assert not r.upper_bound
    assert abs(r.log_p - exact) <= 3.0 * r.stderr_log


@pytest.mark.parametrize("name,theta0,n", (("bernoulli", 0.4, 64), ("exponential", 1.0, 256)))
def test_lr_vs_wald_statistic_path_matches_full_samples(name, theta0, n):
    # no closed form here; the two paths estimate the same probability
    fam = get_family(name)
    event = DiscrepancyEvent("lr_vs_wald", 0.125)
    kw = dict(method="tilted", n_reps=4000, seed=21)
    fast = estimate_prob(event, fam, np.array([theta0]), n, n**-0.25, **kw)
    full = estimate_prob(event, _samples_only(fam), np.array([theta0]), n, n**-0.25, **kw)
    assert not (fast.upper_bound or full.upper_bound)
    assert abs(fast.log_p - full.log_p) <= 3.0 * math.hypot(fast.stderr_log, full.stderr_log)


def test_statistic_events_never_draw_full_samples(monkeypatch):
    fam = get_family("gaussian")
    drawn = []
    draw = type(fam).draw

    def counted(self, rng, thetas, n):
        drawn.append(len(thetas) * n)
        return draw(self, rng, thetas, n)

    monkeypatch.setattr(type(fam), "draw", counted)
    kw = dict(method="tilted", n_reps=300, seed=2)
    for event in (MleEvent(HALF(1.0)), BayesEvent(HALF(1.0)), PosteriorMassEvent(HALF(1.0)),
                  DiscrepancyEvent("lr_vs_wald", 0.125)):
        estimate_prob(event, fam, np.zeros(1), 400, 0.15, **kw)
    assert drawn == []
    # without a truncation law the truncated score needs the samples themselves
    estimate_prob(PsiEvent(HALF(1.0)), _GaussianFullSamples(), np.zeros(1), 400, 0.15, **kw)
    assert sum(drawn) == 300 * 400
    # with it, only the M = ceil(N Q(A^c)) stratum replications draw samples:
    # one tilt component at theta = 0.15, truncation at |x| >= 2 eps / u_n
    drawn.clear()
    estimate_prob(PsiEvent(HALF(1.0)), fam, np.zeros(1), 400, 0.15, **kw)
    cut = 2 * 0.5 / 0.15
    q = sps.norm.sf(cut - 0.15) + sps.norm.sf(cut + 0.15)
    m = math.ceil(300 * -math.expm1(400 * math.log1p(-q)))
    assert m >= 1
    assert sum(drawn) == m * 400


# ---------------------------------------------------------------------------
# psi on the statistic plus the truncated stratum (gaussian)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method, n, u, eps", [
    ("crude", 64, 0.3, 0.5),
    ("tilted", 400, 400 ** -0.25, 0.5),
    ("tilted", 64, 0.3, 0.3),  # the truncation binds in almost every sample
])
def test_stratified_psi_matches_full_samples(method, n, u, eps):
    event = PsiEvent(HALF(1.0))
    kw = dict(method=method, n_reps=4000, eps=eps)
    strat, full = (
        [estimate_prob(event, fam, np.zeros(1), n, u, seed=s, **kw) for s in range(8)]
        for fam in (get_family("gaussian"), _GaussianFullSamples())
    )
    assert not any(r.upper_bound for r in strat + full)
    (ls, ss), (lf, sf) = _pooled(strat), _pooled(full)
    assert abs(ls - lf) <= 3.0 * math.hypot(ss, sf)


def _normal_score_tail(theta0, theta, t):
    """P(|X - theta0| >= 2t) for X ~ N(theta, 1), by scipy.stats."""
    return sps.norm.sf(2 * t - (theta - theta0)) + sps.norm.cdf(-2 * t - (theta - theta0))


@pytest.mark.parametrize("theta0, thetas, t", [
    (0.0, [0.0, 0.3, -0.3], 1.0),
    (0.4, [0.4, 1.9, -1.1], 0.25),
    # the benchmark's n = 6400 tilt: q about 1e-19
    (0.0, [6400 ** -0.25], 0.5 * 6400 ** 0.25),
    (0.0, [0.0, 2.0], 12.0),
])
def test_gaussian_score_tail_matches_scipy(theta0, thetas, t):
    fam = get_family("gaussian")
    got = np.exp(fam.log_score_tail(np.array([theta0]), np.array(thetas)[:, None], t))
    want = np.array([_normal_score_tail(theta0, th, t) for th in thetas])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    if t == 0.5 * 6400 ** 0.25:
        assert 1e-20 < got[0] < 1e-18


@pytest.mark.parametrize("theta0, theta, t", [(0.3, 0.5, 1.0), (0.0, 6400 ** -0.25, 0.5 * 6400 ** 0.25)])
def test_conditioned_draw_matches_its_tail_law(theta0, theta, t):
    # each side's share is its tail mass, and within a side the conditional
    # tail probability of a draw, taken in the log domain, is uniform
    fam = get_family("gaussian")
    reps = 20_000
    x = fam.draw_score_tail(np.random.default_rng(5), np.array([theta0]),
                            np.full((reps, 1), theta), t)
    z = x - theta
    log_hi = sps.norm.logsf(2 * t + theta0 - theta)
    log_lo = sps.norm.logcdf(-2 * t + theta0 - theta)
    upper = x - theta0 >= 2 * t
    assert np.all(upper | (x - theta0 <= -2 * t))
    share = math.exp(log_hi - np.logaddexp(log_hi, log_lo))
    assert sps.binomtest(int(upper.sum()), reps, share).pvalue > 0.01
    u_hi = np.exp(sps.norm.logsf(z[upper]) - log_hi)
    assert sps.kstest(u_hi, "uniform").pvalue > 0.01
    if (~upper).sum() > 100:
        u_lo = np.exp(sps.norm.logcdf(z[~upper]) - log_lo)
        assert sps.kstest(u_lo, "uniform").pvalue > 0.01


@pytest.mark.parametrize("q, n", [(0.05, 64), (0.3, 16), (1e-19, 50)])
def test_first_truncated_index_follows_its_law(q, n):
    # P(J = j | J <= n) = (1 - q)^(j - 1) q / (1 - (1 - q)^n), j = 1..n
    reps = 50_000
    log_q = np.full(reps, math.log(q))
    log_any = rarevent._log_truncated(log_q, n)
    assert log_any[0] == pytest.approx(math.log(-math.expm1(n * math.log1p(-q))), rel=1e-12)
    log_u = np.log1p(-np.random.default_rng(9).random(reps))
    j = rarevent._first_truncated(log_u, log_q, log_any, n) + 1
    assert j.min() >= 1 and j.max() <= n
    js = np.arange(1, n + 1)
    law = np.exp((js - 1) * math.log1p(-q) + math.log(q) - log_any[0])
    assert _chisquare_pvalue(np.bincount(j, minlength=n + 1)[1:], law) > 0.01


def _chisquare_pvalue(counts, law):
    """Chi-square p-value of counts against the law, the bins from the first
    whose expected count is below 5 merged into one."""
    expected = counts.sum() * law / law.sum()
    small = expected < 5.0
    keep = int(np.argmax(small)) if small.any() else len(expected)
    obs_b = np.append(counts[:keep], counts[keep:].sum())
    exp_b = np.append(expected[:keep], expected[keep:].sum())
    return sps.chisquare(obs_b[exp_b > 0], exp_b[exp_b > 0]).pvalue


def test_stratum_samples_follow_the_conditioned_law():
    # two components far apart, one truncated in about 16% of its samples and
    # the other in 77%: a stratum sample picks k with probability proportional
    # to P_k(A^c), which its sample mean shows, and its count of truncated
    # points is then Binomial(n, q_k) given at least one
    fam = get_family("gaussian")
    n, u, eps = 64, 0.3, 0.45  # truncation at |x| >= 3
    comps = (np.array([0.0]), np.array([1.0]))
    pt = rarevent._Point(
        fam, PsiEvent(HALF(1.0)), np.zeros(1), np.zeros(1), n, u, np.zeros(1), eps,
        fisher_information(fam, np.zeros(1)), 0, 0, comps,
        fam.log_score_tail(np.zeros(1), np.stack(comps), eps / u),
    )
    reps = 20_000
    obs = rarevent._draw_stratum(pt, np.random.default_rng(11), reps)
    assert obs.shape == (reps, n)
    qs = [_normal_score_tail(0.0, float(c[0]), eps / u) for c in comps]
    any_ = np.array([-math.expm1(n * math.log1p(-q)) for q in qs])
    share = any_ / any_.sum()
    assert 0.8 < share[1] < 0.85
    from_second = int((obs.mean(axis=1) > 0.5).sum())
    assert sps.binomtest(from_second, reps, share[1]).pvalue > 0.01
    k = truncated_points(fam, np.zeros(1), rarevent.TruncationPolicy(eps, u), obs).sum(1)
    assert k.min() >= 1
    ks = np.arange(1, n + 1)
    law = sum(w * sps.binom.pmf(ks, n, q) / a for w, a, q in zip(share, any_, qs))
    assert _chisquare_pvalue(np.bincount(k, minlength=n + 1)[1:], law) > 0.01


def test_stratified_estimate_combines_the_signed_parts(monkeypatch):
    # one component whose stratum holds Q(A^c) = 1 - (1 - q)^2 of the samples;
    # N = 100 main replications with two unit-weight hits, and a stratum with
    # one unit weight where only h holds and `neg` where only h0 does
    fam = get_family("gaussian")
    q = 0.3
    qac = 1.0 - (1.0 - q) ** 2
    m = math.ceil(100 * qac)
    pt = rarevent._Point(
        fam, PsiEvent(HALF(1.0)), np.zeros(1), np.zeros(1), 2, 0.3, np.zeros(1), 0.5,
        fisher_information(fam, np.zeros(1)), 0, 0, (np.zeros(1),), np.array([math.log(q)]),
    )
    main = (2, math.log(2.0), math.log(2.0))
    for neg in (0, 10):
        lneg = math.log(neg) if neg else -math.inf
        monkeypatch.setattr(rarevent, "run_chunks",
                            lambda fn, reps, n, workers, pt: [(1, 0.0, 0.0, lneg, lneg, 2 * reps)])
        est = rarevent._stratified_estimate(pt, main, 100, 1, "tilted")
        a, d, m2 = 0.02, (1.0 - neg) / m, (1.0 + neg) / m
        p = a + qac * d
        var = (0.02 - a * a) / 100 + qac**2 * (m2 - d * d) / m
        assert est.n_reps == 100
        if p > 0:
            assert not est.upper_bound
            assert est.p_hat == pytest.approx(p, rel=1e-12)
            assert est.stderr_log == pytest.approx(math.sqrt(var) / p, rel=1e-12)
        else:
            # never clipped: the signed estimate stays, flagged, with log_p
            # the bound log(3 sd) above p_hat + 3 sd
            assert est.upper_bound and est.stderr_log == math.inf
            assert est.p_hat == pytest.approx(p, rel=1e-12)
            assert est.log_p == pytest.approx(math.log(3.0 * math.sqrt(var)), rel=1e-12)
    # the same happens in a real run: at eps = 0.2 nearly every sample is
    # truncated, and this one's stratum outweighs its main part
    est = estimate_prob(PsiEvent(HALF(1.0)), fam, np.zeros(1), 256, 0.25, eps=0.2,
                        n_reps=300, seed=5, point_index=1)
    assert est.upper_bound and est.p_hat < 0 and math.isfinite(est.log_p)


def test_stratified_psi_streams_sit_between_statistic_and_pilot_indices(monkeypatch):
    streams = []
    real = rarevent.rep_rng

    def recorded(seed, point_index, stream):
        streams.append(stream)
        return real(seed, point_index, stream)

    monkeypatch.setattr(rarevent, "rep_rng", recorded)
    # chunks of 8192 at n = 64; the stratum holds about 0.95 N
    estimate_prob(PsiEvent(HALF(1.0)), get_family("gaussian"), np.zeros(1), 64, 0.3, eps=0.3,
                  n_reps=20_000, seed=3)
    assert min(streams) >= 2**32 and max(streams) < 2**33
    main = [s - 2**32 for s in streams if s < 2**32 + 2**31]
    stratum = [s - 2**32 - 2**31 for s in streams if s >= 2**32 + 2**31]
    assert main == [0, 8192, 16384]
    assert stratum[:2] == [0, 8192] and len(stratum) >= 2
    # the MLE event at the same point draws from the indices below
    streams.clear()
    estimate_prob(MleEvent(HALF(1.0)), get_family("gaussian"), np.zeros(1), 64, 0.3,
                  n_reps=20_000, seed=3)
    assert streams == [0, 8192, 16384]
    with pytest.raises(GridError, match="n_reps"):
        estimate_prob(PsiEvent(HALF(1.0)), get_family("gaussian"), np.zeros(1), 64, 0.3,
                      n_reps=2**31)


# ---------------------------------------------------------------------------
# determinism and chunking
# ---------------------------------------------------------------------------


def test_worker_count_leaves_results_bitwise_identical():
    fam = get_family("gaussian")
    kw = dict(method="tilted", n_reps=3000, seed=13)  # chunk size 1000 here: 3 chunks
    r1 = estimate_prob(MleEvent(HALF(1.0)), fam, np.zeros(1), 4000, 0.05, workers=1, **kw)
    r3 = estimate_prob(MleEvent(HALF(1.0)), fam, np.zeros(1), 4000, 0.05, workers=3, **kw)
    assert r1.log_p == r3.log_p
    assert r1.p_hat == r3.p_hat
    assert r1.stderr_log == r3.stderr_log


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every process pool run_chunks starts."""
    sizes = []
    real = sampling.ProcessPoolExecutor

    def spy(max_workers):
        sizes.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(sampling, "ProcessPoolExecutor", spy)
    return sizes


POOL_CASES = {
    # window samples, about 440k values in the first chunk of 1952
    # replications: the other ten chunks hold about 4.1M values, four tasks
    "laplace-lr_vs_wald": (get_family("laplace"), DiscrepancyEvent("lr_vs_wald", 0.125), 2049,
                           2049 ** (-1 / 3), 20_000, 4, 0.5),
    # full samples, 4M values a chunk: four chunks, three tasks of one
    "gaussian-psi": (_GaussianFullSamples(), PsiEvent(HALF(1.0)), 4000, 0.05, 4000, 3, 0.5),
    # the statistic, four chunks of 1000 values that start no pool, then the
    # truncated stratum: at eps = 0.22, M = ceil(0.873 N) = 3492 replications
    # in chunks of 1000 full samples, three tasks after the first
    "gaussian-psi-stratum": (get_family("gaussian"), PsiEvent(HALF(1.0)), 4000,
                             4000 ** -0.25, 4000, 3, 0.22),
}


@pytest.mark.parametrize("case", sorted(POOL_CASES))
def test_pool_path_leaves_results_bitwise_identical(pool_sizes, case):
    fam, event, n, u, reps, tasks, eps = POOL_CASES[case]
    runs = {}
    for w in (1, 2, 3):
        pool_sizes.clear()
        runs[w] = estimate_prob(event, fam, np.zeros(1), n, u,
                                n_reps=reps, seed=4, workers=w, eps=eps)
        assert pool_sizes == ([] if w == 1 else [min(w, tasks)])
    assert runs[1].p_hat > 0
    assert runs[2] == runs[1]
    assert runs[3] == runs[1]


def test_small_points_start_no_process(pool_sizes):
    # the benchmark's Laplace equivalence config: window samples of at most
    # about 470 values a replication and one chunk a point, but at n = 4097
    # chunks of 976, 976 and 48 replications, whose short tail starts no pool
    schedule = DeviationSchedule((257, 1025, 4097), 1.0 / 3.0)
    equivalence_tail(get_family("laplace"), [0.0], schedule, 0.125,
                     Budget(n_reps=2000, min_reps=100), seed=1, workers=2)
    # statistic path, one value a replication: the twelve chunks after the
    # first hold 92k values
    estimate_prob(MleEvent(HALF(1.0)), get_family("gaussian"), np.zeros(1), 400, 400 ** -0.25,
                  n_reps=100_000, seed=1, workers=2)
    # full samples (psi without a truncation law) with the same short tail:
    # 4.2M values after the first chunk, but one chunk of full size
    estimate_prob(PsiEvent(HALF(1.0)), _GaussianFullSamples(), np.zeros(1), 4097,
                  4097 ** -0.25, n_reps=2000, seed=0, workers=2)
    assert pool_sizes == []


def _fake_chunk(start, stop, drawn):
    return (start, stop, drawn)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n_reps, drawn, tasks", [
    (3000, 10**6, 0),  # one chunk: 4000 replications a chunk at n = 1000
    (40_000, 0, 0),  # the first chunk draws nothing: the other nine run here
    (40_000, 4 * 10**5, 3),  # nine more chunks, 3.6M values: three tasks of values
])
def test_run_chunks_returns_one_result_per_chunk_in_order(pool_sizes, workers, n_reps, drawn,
                                                          tasks):
    got = sampling.run_chunks(_fake_chunk, n_reps, 1000, workers, drawn)
    assert got == [(s, e, drawn) for s, e in chunk_bounds(n_reps, 4000)]
    assert pool_sizes == ([min(workers, tasks)] if workers > 1 and tasks > 1 else [])


@pytest.mark.parametrize("n_reps, workers, drawn, sizes", [
    (14_000, 1, 4 * 10**6, []),  # one worker: everything here
    (14_000, 2, 10**5, []),  # 1.3M values after the first chunk: no pool
    (14_000, 2, 25 * 10**4, [3, 3, 3, 4]),  # three tasks of values on two processes:
    (14_000, 3, 25 * 10**4, [4, 4, 5]),  # two rounds there, one here
    (14_000, 2, 10**6, [1] * 13),  # never fewer than a chunk a task
    (14_000, 4, 16 * 10**4, [6, 7]),  # two tasks of values cap the pool at two processes
    (2500, 2, 4 * 10**6, []),  # chunks of 1000, 1000 and 500: the tail starts no pool
])
def test_tasks_spread_chunks_evenly_over_rounds(n_reps, workers, drawn, sizes):
    # chunks of 1000 replications; `drawn` counts the first chunk's values
    bounds = chunk_bounds(n_reps, 1000)
    tasks = sampling._tasks(bounds, drawn, workers)
    assert [len(t) for t in tasks] == sizes
    assert sum(tasks, []) == (bounds[1:] if tasks else [])


def test_chunk_size_bounds():
    assert chunk_size(1) == 8192
    assert chunk_size(1000) == 4000
    assert chunk_size(4_000_000) == 128
    assert chunk_size(10**9) == 128


@settings(max_examples=200, deadline=None)
@given(n_reps=st.integers(1, 10**6), size=st.integers(1, 10**4))
def test_chunk_bounds_partition(n_reps, size):
    bounds = chunk_bounds(n_reps, size)
    assert bounds[0][0] == 0
    assert bounds[-1][1] == n_reps
    for (a, b), (c, d) in zip(bounds, bounds[1:]):
        assert b == c and a < b and c < d
    assert all(b - a <= size for a, b in bounds)


def test_rep_rng_streams():
    a = rep_rng(17, 2, 5).standard_normal(4)
    b = rep_rng(17, 2, 5).standard_normal(4)
    c = rep_rng(17, 2, 6).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


BLOCK_CASES = {
    "laplace-mle_vs_psi": (get_family("laplace"), DiscrepancyEvent("mle_vs_psi", 0.125)),
    "laplace-lr_vs_wald": (get_family("laplace"), DiscrepancyEvent("lr_vs_wald", 0.125)),
    "laplace-lr_vs_psi2": (get_family("laplace"), DiscrepancyEvent("lr_vs_psi2", 0.125)),
    "laplace-mle": (get_family("laplace"), MleEvent(HALF(1.0))),
    "laplace-bayes": (get_family("laplace"), BayesEvent(HALF(1.0), PriorSpec.flat())),
    "gaussian-psi": (_GaussianFullSamples(), PsiEvent(HALF(1.0))),
    "gaussian2-psi": (get_family("gaussian2"), PsiEvent(HALF2)),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_row_blocks_leave_chunk_results_unchanged(monkeypatch, case):
    # two components, so the chunk draws its component picks before any row
    fam, event = BLOCK_CASES[case]
    n, reps, u = 66, 300, 66 ** (-1.0 / 3.0)
    theta0 = np.zeros(fam.d)
    e1 = np.eye(fam.d)[0]
    pt = rarevent._Point(
        fam, event, theta0, theta0.copy(), n, u, np.zeros(fam.d), 0.5,
        fisher_information(fam, theta0), 4, 0, (theta0 + u * e1, theta0 - 0.5 * u * e1),
    )
    results = {}
    for rows in (reps, 40):  # one block; seven blocks of 40 rows and one of 20
        monkeypatch.setattr(rarevent, "_BLOCK_VALUES", rows * n * fam.obs_dim)
        blocks = [d.obs.shape[0] for d in rarevent._draw_chunk(pt, 0, reps, 0)]
        assert blocks == ([reps] if rows == reps else [40] * 7 + [20])
        results[rows] = (rarevent._sim_chunk(0, reps, pt), rarevent._pilot_chunk(0, reps, pt))
    assert results[40] == results[reps]
    (hits, *_), pilot_hits = results[reps]
    assert 0 < hits < reps and 0 < pilot_hits < reps


# ---------------------------------------------------------------------------
# pilot ladder
# ---------------------------------------------------------------------------


def _coupling_point(fam, kind, theta0, n, seed, delta=0.125):
    """The rate point estimate_prob builds for a coupling at b = 0."""
    theta0 = np.array(theta0, dtype=float)
    return rarevent._Point(
        fam, DiscrepancyEvent(kind, delta), theta0, theta0.copy(), n, n**-0.25,
        np.zeros(fam.d), 0.5, fisher_information(fam, theta0), seed, 7,
    )


def _full_ladder(pt):
    """Reference: all nine rungs on their own streams, then the choice rule
    (first rung at frequency >= 0.2, else the argmax; -1 outside the domain)."""
    fam, inv_sqrt = pt.fam, pt.fisher.inv_sqrt
    e1 = np.eye(fam.d)[0]
    freqs = []
    for bi, b_try in enumerate(rarevent._PILOT_B_GRID):
        comp = pt.theta_gen + pt.u_n * b_try * (inv_sqrt @ e1)
        if not fam.theta_domain.contains(comp):
            freqs.append(-1.0)
            continue
        rung = replace(pt, components=(comp,), point_index=pt.point_index + 1000 * (bi + 1))
        freqs.append(rarevent._pilot_chunk(0, rarevent._PILOT_REPS, rung) / rarevent._PILOT_REPS)
    qualified = [bi for bi, f in enumerate(freqs) if f >= 0.2]
    bi = qualified[0] if qualified else int(np.argmax(freqs))
    b_star = rarevent._PILOT_B_GRID[bi]
    if b_star == 0.0:
        return bi, bool(qualified), freqs, [pt.theta_gen]
    comps = [pt.theta_gen + pt.u_n * b_star * (inv_sqrt @ e)
             for e in np.concatenate([np.eye(fam.d), -np.eye(fam.d)])]
    return bi, bool(qualified), freqs, [c for c in comps if fam.theta_domain.contains(c)]


@pytest.mark.parametrize("family, theta0, delta", [
    ("laplace", [0.0], 0.125),
    ("gaussian", [0.0], 0.125),
    ("bernoulli", [0.9], 0.125),  # rungs from b = 1 (n = 65) or 1.5 (n = 257) leave the domain
    ("bernoulli", [0.95], 0.25),  # no rung reaches 0.2, and rungs from b = 1 leave the domain
])
@pytest.mark.parametrize("kind", ["mle_vs_psi", "lr_vs_wald", "lr_vs_psi2"])
def test_pilot_early_exit_matches_full_ladder(monkeypatch, family, theta0, delta, kind):
    fam = get_family(family)
    ran = []
    pilot_chunk = rarevent._pilot_chunk

    def counted(start, stop, pt):
        ran.append(pt.point_index)
        return pilot_chunk(start, stop, pt)

    seen = set()
    for n in (65, 257):
        for seed in (0, 1, 2):
            pt = _coupling_point(fam, kind, theta0, n, seed, delta)
            bi, qualified, freqs, comps = _full_ladder(pt)
            ran.clear()
            with monkeypatch.context() as m:
                m.setattr(rarevent, "_pilot_chunk", counted)
                got, b_star = rarevent._pilot_tilts(pt)
            assert b_star == rarevent._PILOT_B_GRID[bi]
            assert len(got) == len(comps)
            for g, c in zip(got, comps):
                np.testing.assert_array_equal(g, c)
            # one worker: the ladder stops at the chosen rung, or runs every
            # rung inside the domain when none qualifies
            n_run = bi + 1 if qualified else sum(f >= 0 for f in freqs)
            assert ran == [pt.point_index + 1000 * (k + 1) for k in range(n_run)]
            seen.add((qualified, bi > 0, min(freqs) < 0))
    if family == "laplace":
        assert (True, True, False) in seen  # some ladders stop past the first rung
    if delta == 0.25 and kind == "lr_vs_wald":
        assert (False, True, True) in seen  # argmax past b = 0, with rungs outside


def test_pilot_runs_every_rung_when_none_qualifies(monkeypatch):
    # hit counts by rung, none reaching 0.2 * 400 = 80; the argmax is rung 2
    hits = [10, 30, 79, 50, 0, 79, 12, 5, 40]
    ran = []

    def fake(start, stop, pt):
        rung = (pt.point_index - 7) // 1000 - 1
        ran.append(rung)
        return hits[rung]

    monkeypatch.setattr(rarevent, "_pilot_chunk", fake)
    pt = _coupling_point(get_family("laplace"), "lr_vs_wald", [0.0], 257, 0)
    comps, b_star = rarevent._pilot_tilts(pt)
    assert ran == list(range(9))
    assert b_star == rarevent._PILOT_B_GRID[2]
    assert len(comps) == 2


def test_pilot_runs_rungs_up_to_the_winner(monkeypatch):
    # the winner is rung 2 (b = 1): waves of two rungs would run rung 3 too
    fam = get_family("laplace")
    pt = _coupling_point(fam, "lr_vs_wald", [0.0], 257, 0)
    bi, qualified, _, _ = _full_ladder(pt)
    assert (bi, qualified) == (2, True)
    ran = []
    pilot_chunk = rarevent._pilot_chunk

    def counted(start, stop, rung):
        ran.append(rung.point_index)
        return pilot_chunk(start, stop, rung)

    monkeypatch.setattr(rarevent, "_pilot_chunk", counted)
    est = estimate_prob(pt.event, fam, pt.theta0, pt.n, pt.u_n, n_reps=500, seed=pt.seed,
                        point_index=pt.point_index, workers=2)
    assert est.method == "tilted(pilot-b=1)"
    assert ran == [pt.point_index + 1000 * (k + 1) for k in range(bi + 1)]


def test_worker_count_leaves_pilot_tilted_results_bitwise_identical():
    # chunk size 1952 at n = 2049: two main chunks, too little work for a
    # process pool at any worker count; the pilot stops at b = 1.5 (rung 3)
    fam = get_family("laplace")
    event = DiscrepancyEvent("lr_vs_wald", 0.125)
    n = 2049
    runs = [
        estimate_prob(event, fam, np.zeros(1), n, n ** (-1 / 3), n_reps=2000, seed=4, workers=w)
        for w in (1, 2, 3)
    ]
    assert runs[0].method == "tilted(pilot-b=1.5)"
    assert runs[0].p_hat > 0
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


# ---------------------------------------------------------------------------
# curves and sweeps
# ---------------------------------------------------------------------------


def test_deviation_schedule_validation():
    with pytest.raises(GridError):
        DeviationSchedule((100, 100), 0.25)
    with pytest.raises(GridError):
        DeviationSchedule((100, 50), 0.25)
    with pytest.raises(GridError):
        DeviationSchedule((100,), 0.5)
    with pytest.raises(GridError):
        DeviationSchedule((100,), -0.1)
    with pytest.raises(GridError):
        DeviationSchedule((100,), 0.25, c=0.0)
    with pytest.raises(GridError):
        DeviationSchedule((1,), 0.25)
    s = DeviationSchedule((16, 256), 0.25, c=2.0)
    assert s.u_of(16) == pytest.approx(1.0)
    assert s.u_of(256) == pytest.approx(0.5)


def test_ldp_curve_rejects_fixed_u():
    fam = get_family("gaussian")
    with pytest.raises(GridError):
        ldp_curve(MleEvent(HALF(1.0)), fam, np.zeros(1), DeviationSchedule((64, 256), 0.0))


def test_ldp_curve_target_and_determinism():
    fam = get_family("gaussian")
    sched = DeviationSchedule((64, 256), 0.25)
    budget = Budget(n_reps=2000, min_reps=500)
    c1 = ldp_curve(MleEvent(HALF(1.0)), fam, np.zeros(1), sched, budget=budget, seed=4)
    c2 = ldp_curve(MleEvent(HALF(1.0)), fam, np.zeros(1), sched, budget=budget, seed=4)
    assert c1.target == 1.0
    assert c1.label == "MleEvent"
    assert [p.estimate.log_p for p in c1.points] == [p.estimate.log_p for p in c2.points]
    # in the moderate zone the normalized rate sits above the target
    assert all(rate > c1.target for rate in c1.normalized_rates())


def test_ldp_curve_shifts_every_point_by_the_schedules_b():
    fam = get_family("exponential")
    theta0 = np.ones(1)
    shifted = ldp_curve(MleEvent(HALF(1.0)), fam, theta0,
                        DeviationSchedule((400, 1600), 0.25, b=[0.5]), method="exact")
    plain = ldp_curve(MleEvent(HALF(1.0)), fam, theta0,
                      DeviationSchedule((400, 1600), 0.25), method="exact")
    got = [p.estimate.log_p for p in shifted.points]
    want = [estimate_prob(MleEvent(HALF(1.0)), fam, theta0, n, n**-0.25, b=[0.5],
                          method="exact").log_p for n in (400, 1600)]
    assert got == want == [-8.51530250701092, -16.880532678245764]
    assert [p.estimate.log_p for p in plain.points] == [-9.892058957958733, -19.068694398901087]


def test_ldp_curve_budget_caps_replications():
    fam = get_family("gaussian")
    sched = DeviationSchedule((64,), 0.25)
    budget = Budget(n_reps=2000, max_total_draws=6400, min_reps=50)
    curve = ldp_curve(MleEvent(HALF(1.0)), fam, np.zeros(1), sched, budget=budget, seed=0)
    assert curve.points[0].estimate.n_reps == 6400 // 64


def test_equivalence_tail_structure():
    fam = get_family("gaussian")
    curves = equivalence_tail(
        fam, np.zeros(1), DeviationSchedule((64,), 0.25), delta=0.125,
        budget=Budget(n_reps=500, min_reps=200), seed=1,
    )
    assert set(curves) == {"mle_vs_psi", "lr_vs_wald", "lr_vs_psi2"}
    for kind, curve in curves.items():
        assert curve.label == kind
        assert math.isnan(curve.target)
        assert curve.points[0].estimate.method.startswith("tilted(pilot-b=")
    # wald and lr coincide for this family, so the failure event never fires
    wald = curves["lr_vs_wald"].points[0].estimate
    assert wald.upper_bound
    assert wald.log_p == pytest.approx(math.log(3.0 / 500.0), rel=1e-12)
    # the score truncation does break the mle/psi coupling at small n
    assert not curves["mle_vs_psi"].points[0].estimate.upper_bound


@pytest.mark.parametrize("family", ("gaussian", "gaussian2"))
@pytest.mark.parametrize("kind", ("lr_vs_wald", "lr_vs_psi2"))
def test_gaussian_lr_couplings_never_fail(family, kind):
    # For a Gaussian location family sum_xi = n |xbar - theta|^2 / 2 exactly,
    # which is the Wald statistic over two and, while the truncation is
    # inactive, 2 |psi|^2; both coupling failures are therefore never seen.
    fam = get_family(family)
    n = 400
    r = estimate_prob(
        DiscrepancyEvent(kind, 0.125), fam, np.zeros(fam.d), n, n**-0.25,
        method="crude", n_reps=400, seed=1,
    )
    assert r.upper_bound
    assert r.p_hat == 0.0


@pytest.mark.parametrize("b", (0.5, 1.0))
def test_gaussian_lr_vs_psi2_never_fails_off_theta0(b):
    # At theta_gen = theta0 + u_n b, sum_xi = 2 |psi - sqrt(n) u_n b / 2|^2
    # exactly while the truncation is inactive, so the coupling holds at any b.
    n = 1024
    r = estimate_prob(
        DiscrepancyEvent("lr_vs_psi2", 0.125), get_family("gaussian"), np.zeros(1), n,
        n ** (-1 / 3), b=[b], method="crude", n_reps=2000, seed=0,
    )
    assert r.upper_bound
    assert r.p_hat == 0.0


def test_bahadur_sweep_exact_rates_decrease_to_target():
    fam = get_family("gaussian")
    curves = bahadur_sweep(
        MleEvent(HALF(1.0)), fam, np.zeros(1), (0.3, 0.2), 10000, method="exact"
    )
    assert [p.n for p in curves[0].points] == [156, 625, 2500, 10000]
    assert curves[0].label == "u=0.3"
    for curve in curves:
        rates = curve.normalized_rates()
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert rates[-1] > curve.target == 1.0
        assert rates[-1] == pytest.approx(1.0, abs=0.02)


def test_bahadur_sweep_validation():
    fam = get_family("gaussian")
    with pytest.raises(GridError):
        bahadur_sweep(MleEvent(HALF(1.0)), fam, np.zeros(1), (0.3,), 8)
    with pytest.raises(GridError):
        bahadur_sweep(MleEvent(HALF(1.0)), fam, np.zeros(1), (0.0,), 10000)


def test_curve_drivers_key_each_point_by_its_index():
    # the RNG contract: point i of an ldp curve, point i of coupling k in an
    # equivalence tail and point i of the j-th u in a Bahadur sweep run on
    # the streams of point index i, 10_000 k + i and 100_000 j + i
    fam = get_family("bernoulli")
    theta0 = np.array([0.5])
    budget = Budget(n_reps=300, min_reps=100)
    kw = dict(method="tilted", seed=7, eps=0.5, workers=1)
    sched = DeviationSchedule((64, 256), 0.25)

    def direct(event, n, u, index):
        return estimate_prob(event, fam, theta0, n, u, n_reps=300, point_index=index, **kw)

    event = MleEvent(HALF(1.0))
    curve = ldp_curve(event, fam, theta0, sched, budget=budget, **kw)
    for i, p in enumerate(curve.points):
        assert p.estimate == direct(event, p.n, sched.u_of(p.n), i)

    curves = equivalence_tail(fam, theta0, sched, 0.125, budget=budget, **kw)
    for k, kind in enumerate(("mle_vs_psi", "lr_vs_wald", "lr_vs_psi2")):
        for i, p in enumerate(curves[kind].points):
            want = direct(DiscrepancyEvent(kind, 0.125), p.n, sched.u_of(p.n), 10_000 * k + i)
            assert p.estimate == want

    sweep = bahadur_sweep(event, fam, theta0, (0.3, 0.2), 1024, budget=budget, **kw)
    for j, (u, curve) in enumerate(zip((0.3, 0.2), sweep)):
        assert len(curve.points) == 4
        for i, p in enumerate(curve.points):
            assert p.estimate == direct(event, p.n, u, 100_000 * j + i)
    # the keys matter: the same point on the stream of another index differs
    assert sweep[1].points[0].estimate != direct(event, sweep[1].points[0].n, 0.2, 0)


def test_normalized_rate_arithmetic():
    est = ProbEstimate(math.exp(-2.0), -2.0, 0.0, "exact", 0, 0)
    assert RatePoint(n=100, u_n=0.1, estimate=est).normalized_rate == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# Laplace window samples
# ---------------------------------------------------------------------------


def _full_samples(fam):
    """The same family without its window law: the kernel draws full samples
    with LaplaceLocation.draw."""
    cls = type(fam)
    return type(cls.__name__ + "Full", (cls,), {"draw_window": lambda self, *args: None})()


WINDOW_EVENTS = {
    "mle": MleEvent(HALF(1.0)),
    "psi": PsiEvent(HALF(1.0)),
    "bayes": BayesEvent(HALF(1.0), PriorSpec.flat()),
    "bayes-absolute": BayesEvent(HALF(1.0), PriorSpec.flat(), LossSpec.power(1.0)),
    "mass": PosteriorMassEvent(HALF(1.0), 0.5),
    "mle_vs_psi": DiscrepancyEvent("mle_vs_psi", 0.125),
    "lr_vs_wald": DiscrepancyEvent("lr_vs_wald", 0.125),
    "lr_vs_psi2": DiscrepancyEvent("lr_vs_psi2", 0.125),
}


@pytest.mark.parametrize("n", (257, 256))
@pytest.mark.parametrize("case", sorted(WINDOW_EVENTS))
def test_window_sample_reads_what_the_full_sample_reads(n, case):
    # the window sample built from a full sample: the median, psi, the
    # log-likelihood differences and every indicator are the full sample's
    fam = get_family("laplace")
    u = n ** (-1.0 / 3.0)
    theta0 = np.array([0.1])
    theta_gen = theta0 + 0.5 * u
    comps = (theta_gen + 1.5 * u, theta_gen - 1.5 * u)
    pt = rarevent._Point(
        fam, WINDOW_EVENTS[case], theta0, theta_gen, n, u, np.array([0.5]), 0.5,
        fisher_information(fam, theta0), 0, 0, comps,
    )
    reps = 300
    thetas = np.stack(comps)[np.arange(reps) % 2]
    obs = fam.draw(np.random.default_rng(n), thetas, n)
    ordered = np.sort(obs, axis=1)
    mid = ordered[:, [(n - 1) // 2, n // 2]]
    lo, hi = (e[:, None] for e in rarevent._window(pt, mid))
    inside = (obs >= lo) & (obs <= hi)
    values = np.concatenate((lo - 1.0, hi + 1.0, np.where(inside, obs, lo)), axis=1)
    counts = np.concatenate(((obs < lo).sum(1, keepdims=True), (obs > hi).sum(1, keepdims=True),
                             inside), axis=1).astype(float)
    window = rarevent._Draws(fam, n, None, values, counts, mid.mean(axis=1, keepdims=True))
    full = rarevent._Draws(fam, n, None, obs)

    est = full.mle()
    np.testing.assert_allclose(window.mle(), est, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rarevent._psi_matrix(pt, window), rarevent._psi_matrix(pt, full),
                               rtol=0, atol=1e-12)
    grids = [np.stack((theta_gen,) + comps), est[:, None, :]]
    if isinstance(pt.event, (BayesEvent, PosteriorMassEvent)):
        grids.append(grid_nodes(default_posterior_box(fam, est, n, u), 256))
    for grid in grids:
        lw, lf = window.loglik(grid), full.loglik(grid)
        ref_w, ref_f = window.loglik(theta_gen[None, :]), full.loglik(theta_gen[None, :])
        np.testing.assert_allclose(lw - ref_w, lf - ref_f, rtol=0, atol=1e-12)
    hits = rarevent._indicator(pt, window)
    np.testing.assert_array_equal(hits, rarevent._indicator(pt, full))


def _pooled(runs):
    """Equal-size runs on seeds of their own as one estimate: the log of
    their mean p and its stderr.  A single run's log p is skewed low when a
    few weights dominate; the pooled mean is not."""
    p = np.array([r.p_hat for r in runs])
    se = np.array([r.stderr_log for r in runs])
    return math.log(p.mean()), math.sqrt(np.sum((p * se) ** 2)) / (len(p) * p.mean())


def test_laplace_events_never_draw_full_samples(monkeypatch):
    fam = get_family("laplace")

    def refuse(self, rng, thetas, n):
        raise AssertionError("a Laplace chunk drew full samples")

    monkeypatch.setattr(type(fam), "draw", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateWeightsWarning)
        for event in WINDOW_EVENTS.values():
            for n in (64, 65):
                estimate_prob(event, fam, np.zeros(1), n, n ** (-1 / 3), n_reps=200, seed=1)


@pytest.mark.parametrize("n", (257, 1025, 4097))
def test_window_mle_tail_matches_binomial_tail(n):
    fam = get_family("laplace")
    u = n ** (-1.0 / 3.0)
    event = MleEvent(HALF(1.0))
    ex = estimate_prob(event, fam, np.zeros(1), n, u, method="exact")
    runs = [estimate_prob(event, fam, np.zeros(1), n, u, n_reps=2000, seed=s) for s in range(8)]
    log_p, se = _pooled(runs)
    assert abs(log_p - ex.log_p) <= 3.0 * se


@pytest.mark.parametrize("case, n", [
    ("mle_vs_psi", 256), ("lr_vs_wald", 256), ("lr_vs_psi2", 256), ("mle", 256), ("bayes", 64),
])
def test_window_samples_match_full_samples(case, n):
    # the same event on window samples and on full samples drawn with
    # LaplaceLocation.draw, each with its own pilot ladder
    fam = get_family("laplace")
    event = WINDOW_EVENTS[case]
    kw = dict(n_reps=2000, method="tilted")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateWeightsWarning)
        w_runs, f_runs = (
            [estimate_prob(event, path, np.zeros(1), n, n ** (-1 / 3), seed=s, **kw)
             for s in range(8)]
            for path in (fam, _full_samples(fam))
        )
    assert not any(r.upper_bound for r in w_runs + f_runs)
    (lw, sw), (lf, sf) = _pooled(w_runs), _pooled(f_runs)
    assert abs(lw - lf) <= 3.0 * math.hypot(sw, sf)


class _CountingGenerator:
    """A generator that adds up how many values each of its draws returns."""

    def __init__(self, rng):
        self.rng, self.values = rng, 0

    def __getattr__(self, name):
        draw = getattr(self.rng, name)

        def counted(*args, **kwargs):
            out = draw(*args, **kwargs)
            self.values += np.size(out)
            return out

        return counted


def test_window_replications_draw_a_fraction_of_n(monkeypatch):
    # the benchmark's Laplace points at n = 4097: couplings on their pilot
    # tilts and the half-space MLE; every chunk, pilot rungs included, draws
    # under n/5 values per replication
    fam = get_family("laplace")
    n = 4097
    chunks = []
    rep_rng_ = rarevent.rep_rng

    def counting(seed, point_index, stream):
        chunks.append(_CountingGenerator(rep_rng_(seed, point_index, stream)))
        return chunks[-1]

    monkeypatch.setattr(rarevent, "rep_rng", counting)
    monkeypatch.setattr(rarevent, "_draw_chunk", _recording_reps(rarevent._draw_chunk, chunks))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateWeightsWarning)
        for event in (WINDOW_EVENTS["mle_vs_psi"], WINDOW_EVENTS["lr_vs_wald"],
                      WINDOW_EVENTS["lr_vs_psi2"], WINDOW_EVENTS["mle"]):
            estimate_prob(event, fam, np.zeros(1), n, n ** (-1 / 3), n_reps=2000, seed=1001)
    assert len(chunks) > 12
    assert all(0 < g.values <= g.reps * n / 5 for g in chunks)


def _recording_reps(draw_chunk, chunks):
    def recorded(pt, start, stop, stream):
        blocks = draw_chunk(pt, start, stop, stream)
        first = next(blocks)  # the chunk's draws, from the generator just made
        chunks[-1].reps = stop - start
        yield first
        yield from blocks

    return recorded
