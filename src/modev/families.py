"""Parametric families: densities, samplers, scores, and Hellinger functionals.

Each family is a frozen dataclass over a bounded open parameter box.  The
central object is the root-density increment

    g(x, tau) = sqrt(f(x, theta0 + tau) / f(x, theta0)) - 1,

whose first-order coefficient phi(x) (one half of the classical score for
smooth families) drives everything downstream: Fisher information is
I(theta) = 4 E[phi phi^T], and the truncated-score statistics are built
from phi.  Built-in families carry closed forms used as oracles by the
test suite; quadrature paths exist for everything so the closed forms are
checkable rather than assumed.

Observations are scalar for every family except the 2-d Gaussian location
family, whose observations are points in R^2.  Evaluators broadcast over
leading axes, so replication-by-observation matrices work directly.  Every
family method takes theta as a float array whose last axis has length d and
whose leading axes broadcast against the sample axes of x; one-parameter
families read theta[..., 0], and score_phi carries a trailing axis of length d.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional

import numpy as np
from scipy import special

from .errors import DomainError, QuadratureError, RankError, SupportError

_LOG_2PI = math.log(2.0 * math.pi)

# Quadrature targets: absolute 1e-10 requested, convergence accepted when the
# reported error is below 1e-9 (absolute or relative).
_QUAD_EPSABS = 1e-10
_QUAD_ACCEPT = 1e-9
_QUAD_LIMIT = 200  # subintervals per piece between the breaks


@dataclass(frozen=True)
class Box:
    """Open axis-aligned box in R^d; bounds with leading axes hold one box per row."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise ValueError("box needs lo < hi componentwise")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("box must be bounded")

    @property
    def d(self) -> int:
        return self.lo.shape[-1]

    def width(self) -> np.ndarray:
        return self.hi - self.lo

    def contains(self, theta: np.ndarray) -> bool:
        t = np.atleast_1d(np.asarray(theta, dtype=float))
        if t.shape != self.lo.shape:
            return False
        return bool(np.all(t > self.lo) and np.all(t < self.hi))


@dataclass(frozen=True)
class Support:
    """Observation-space descriptor used by quadrature and validation."""

    kind: str  # "real" | "halfline" | "binary" | "real2"

    def check(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            return False
        if self.kind == "halfline":
            return bool(np.all(x >= 0.0))
        if self.kind == "binary":
            return bool(np.all((x == 0.0) | (x == 1.0)))
        return True


@dataclass(frozen=True)
class SampleBatch:
    """An i.i.d. sample plus everything needed to reproduce it."""

    family: str
    theta_gen: np.ndarray
    n: int
    observations: np.ndarray
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("sample size must be >= 1")


@dataclass(frozen=True)
class FisherInfo:
    """I(theta) with its symmetric square root and inverse square root."""

    theta: np.ndarray
    matrix: np.ndarray
    sqrt: np.ndarray
    inv_sqrt: np.ndarray


def _as_step(fam: "ParametricFamily", step, name: str) -> np.ndarray:
    """A length-d parameter vector or displacement; any other length raises."""
    t = np.atleast_1d(np.asarray(step, dtype=float))
    if t.size != fam.d:
        raise DomainError(f"{name} has dimension {t.size}, family {fam.name} needs {fam.d}")
    return t


def _as_theta(fam: "ParametricFamily", theta) -> np.ndarray:
    t = _as_step(fam, theta, "theta")
    if not fam.theta_domain.contains(t):
        raise DomainError(f"theta {t.tolist()} outside open domain of {fam.name}")
    return t


def _signed_axes(d: int) -> np.ndarray:
    """The (2d, d) signed unit vectors e_0, -e_0, e_1, -e_1, ..."""
    eye = np.eye(d)
    return np.stack((eye, -eye), axis=1).reshape(2 * d, d)


@dataclass(frozen=True)
class ParametricFamily:
    """Base family. Concrete families override the evaluators."""

    name: str = ""
    d: int = 1
    obs_dim: int = 1
    theta_domain: Box = field(default_factory=lambda: Box(np.array([-1.0]), np.array([1.0])))
    support: Support = field(default_factory=lambda: Support("real"))
    # the log density has kinks, so its gradient exists only almost everywhere
    gradient_ae: ClassVar[bool] = False
    # log f(x + s, theta + s) = log f(x, theta): an integral over x of f_theta
    # and its shifts f_{theta + tau} is the same at every theta
    location: ClassVar[bool] = False

    # -- density and scores ------------------------------------------------
    def log_density(self, x, theta):
        raise NotImplementedError

    def score_phi(self, x, theta):
        """phi(x): first-order coefficient of g(x, tau) in tau, shaped (..., d)."""
        raise NotImplementedError

    def fisher_closed_form(self, theta) -> Optional[np.ndarray]:
        return None

    # -- sampling ----------------------------------------------------------
    def draw(self, rng: np.random.Generator, thetas, n: int):
        """R samples of size n, one per parameter row of thetas (R, d), as one
        (R, n[, obs_dim]) block; row r reads the generator after row r - 1."""
        raise NotImplementedError

    def draw_stats(self, rng: np.random.Generator, thetas, n: int) -> Optional[np.ndarray]:
        """The (R, k) sufficient statistics of R samples of size n, one per
        parameter row of thetas (R, d), drawn from their exact law; None, with
        nothing drawn, when the family has no statistic."""
        return None

    def draw_window(self, rng: np.random.Generator, thetas, n: int, window, rows: int):
        """R samples of size n, one per parameter row of thetas (R, d), drawn
        from their exact law but kept explicitly only on a window about their
        middle order statistics; None, with nothing drawn, when the family has
        no such law.

        window(mid) maps the (R, 2) lower and upper middle order statistics
        (equal for odd n) to the (R,) window ends lo <= mid <= hi.  Returns
        an iterator over blocks of at most `rows` replications, in row order:
        the weighted samples (values, counts), both (rows, m), and the (rows,
        d) sample medians.  A weighted sample counts each value counts times;
        it parks the points below lo at lo - 1 and those above hi at hi + 1,
        so its log-likelihood differences between parameters in [lo, hi], and
        its count of points on either side of such a parameter, are those of
        the full sample when the log density is linear in theta outside the
        window.  The draws do not depend on `rows`.
        """
        return None

    # -- truncation law of the score ------------------------------------------
    # A family that knows the law of |phi(X)| under its parameters overrides
    # all three hooks; psi events then draw the untruncated score from the
    # sufficient statistic and full samples only where the truncation binds.
    def log_score_tail(self, theta0, thetas, t) -> Optional[np.ndarray]:
        """log P_theta(|phi(X)| >= t), phi taken at theta0, for one observation
        under each parameter row of thetas (K, d); None when unknown."""
        return None

    def draw_score_tail(self, rng: np.random.Generator, theta0, thetas, t):
        """One observation per parameter row of thetas (R, d), drawn from
        P_theta(. | |phi(X)| >= t), phi taken at theta0."""
        raise NotImplementedError

    def score_sum_from_stats(self, stats, n: int, theta0) -> np.ndarray:
        """(R, d) untruncated score sums sum_i phi(X_i) at theta0 of R samples
        of size n with sufficient statistics stats (R, k)."""
        raise NotImplementedError

    # -- estimator hooks ---------------------------------------------------
    def mle_batch(self, obs_mat) -> Optional[np.ndarray]:
        """Closed-form estimates for a (reps, n[, obs_dim]) stack, or None."""
        stats = self.suff_stats(obs_mat)
        return None if stats is None else self.mle_from_stats(stats, obs_mat.shape[1])

    def mle_from_stats(self, stats, n: int) -> np.ndarray:
        """(reps, d) closed-form estimates from the sufficient statistics: the
        statistic over n, which is the MLE when the statistic has mean n theta;
        families whose statistic has another mean override it."""
        return stats / n

    def suff_stats(self, obs_mat) -> Optional[np.ndarray]:
        """Low-dimensional sufficient statistic per replication, or None."""
        return None

    def loglik_from_stats(self, stats, n: int, thetas) -> Optional[np.ndarray]:
        """(reps, G) log-likelihood up to an additive theta-free constant, on a
        grid (G, d) shared by the replications or one grid (reps, G, d) each."""
        return None

    # -- exact tails -------------------------------------------------------
    def log_tail(self, pt, hits) -> float:
        """log p of rate point pt's event in closed form, or DomainError.  The
        event's estimator tag is "mle", "psi", "bayes" or "posterior_mass";
        hits(stats, obs, counts) is its own indicator on weighted samples."""
        raise DomainError(f"no exact tail oracle for family {self.name!r} with this event")

    def flat_posterior_cdf(self, est, n: int):
        """theta -> the (R,) flat-prior posterior CDFs at theta of R samples of
        size n whose MLE rows are est, or None when there is no closed form."""
        return None


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------


def _gaussian_log_tail(fam: ParametricFamily, pt, hits) -> float:
    """Gaussian location tails in the log domain: MLE, psi (truncation assumed
    inactive) and flat-prior Bayes events (both closed-form estimates are
    xbar; the posterior box acts below double precision) as region tails of
    N(0, (n u_n^2)^{-1} Id), and posterior mass on 1-d half-spaces."""
    from scipy import stats as sps

    def log_interval(lo, hi):
        # log P(lo < Z < hi) from the tail on the interval's side of 0, so
        # that a deep-tail interval keeps its digits
        if lo >= 0.0:
            a, b = float(sps.norm.logsf(lo)), float(sps.norm.logsf(hi))
        elif hi <= 0.0:
            a, b = float(sps.norm.logcdf(hi)), float(sps.norm.logcdf(lo))
        else:
            return math.log(sps.norm.cdf(hi) - sps.norm.cdf(lo))
        return a + math.log(-math.expm1(b - a)) if b < a else -math.inf

    event, region, scale = pt.event, pt.event.region, math.sqrt(pt.n) * pt.u_n
    if event.estimator == "posterior_mass":
        if fam.d != 1 or region.shape != "half_space":
            raise DomainError("exact posterior-mass tails need Gaussian, flat prior, half-space")
        return float(sps.norm.logsf(scale * region.c - float(sps.norm.isf(event.threshold))))
    if region.shape == "half_space":
        return float(sps.norm.logsf(region.c * scale))
    if region.shape == "complement_ball":
        return float(sps.chi2.logsf((region.r * scale) ** 2, df=region.d))
    if region.shape == "box":
        return sum(log_interval(lo * scale, hi * scale) for lo, hi in zip(region.lo, region.hi))
    if region.shape == "complement_box":
        # 1 - prod_i (1 - q_i) = sum_i q_i prod_{j<i} (1 - q_j), q_i the
        # probability that axis i leaves [lo_i, hi_i]: no cancellation
        terms, log_stay = [], 0.0
        for lo, hi in zip(region.lo, region.hi):
            log_q = float(np.logaddexp(sps.norm.logcdf(lo * scale), sps.norm.logsf(hi * scale)))
            terms.append(log_stay + log_q)
            log_stay += math.log1p(-math.exp(log_q))
        return float(special.logsumexp(terms))
    raise DomainError(f"no exact tail for region shape {region.shape!r}")


@dataclass(frozen=True)
class GaussianLocation(ParametricFamily):
    """N(theta, 1) on the real line."""

    name: str = "gaussian"
    d: int = 1
    obs_dim: int = 1
    theta_domain: Box = field(default_factory=lambda: Box(np.array([-10.0]), np.array([10.0])))
    support: Support = field(default_factory=lambda: Support("real"))
    location: ClassVar[bool] = True

    def log_density(self, x, theta):
        x = np.asarray(x, dtype=float)
        return -0.5 * _LOG_2PI - 0.5 * (x - theta[..., 0]) ** 2

    def score_phi(self, x, theta):
        return (np.asarray(x, dtype=float)[..., None] - theta) / 2.0

    def fisher_closed_form(self, theta):
        return np.array([[1.0]])

    def draw(self, rng, thetas, n):
        x = rng.standard_normal((len(thetas), n))
        x += thetas[:, :1]
        return x

    def draw_stats(self, rng, thetas, n):
        # the sum of n draws is N(n theta, n)
        return n * thetas + math.sqrt(n) * rng.standard_normal(thetas.shape)

    def suff_stats(self, obs_mat):
        return np.sum(obs_mat, axis=1)[:, None]

    def loglik_from_stats(self, stats, n, thetas):
        th = thetas[..., 0]
        return th * stats[:, :1] - 0.5 * n * th**2

    def log_score_tail(self, theta0, thetas, t):
        # |phi(x)| = |x - theta0| / 2 >= t: two normal tails at 2t -+ (theta - theta0)
        shift = thetas[:, 0] - theta0[0]
        return np.logaddexp(special.log_ndtr(shift - 2.0 * t), special.log_ndtr(-shift - 2.0 * t))

    def draw_score_tail(self, rng, theta0, thetas, t):
        # a side by its tail mass, then the normal tail inverted in the log
        # domain, so that a tail mass of 1e-19 keeps its digits
        shift = thetas[:, 0] - theta0[0]
        log_hi = special.log_ndtr(shift - 2.0 * t)
        log_lo = special.log_ndtr(-shift - 2.0 * t)
        side, depth = rng.random((2, len(thetas)))
        upper = side < np.exp(log_hi - np.logaddexp(log_hi, log_lo))
        log_s = np.where(upper, log_hi, log_lo) + np.log1p(-depth)
        z = special.ndtri_exp(log_s)
        return thetas[:, 0] + np.where(upper, -z, z)

    def score_sum_from_stats(self, stats, n, theta0):
        return (stats - n * theta0) / 2.0

    log_tail = _gaussian_log_tail

    def flat_posterior_cdf(self, est, n):
        # the flat-prior posterior is N(xbar, 1/n)
        return lambda theta: special.ndtr(math.sqrt(n) * (theta - est[:, 0]))


@dataclass(frozen=True)
class GaussianLocation2(ParametricFamily):
    """N(theta, I_2) in the plane; observations are 2-vectors."""

    name: str = "gaussian2"
    d: int = 2
    obs_dim: int = 2
    theta_domain: Box = field(
        default_factory=lambda: Box(np.array([-10.0, -10.0]), np.array([10.0, 10.0]))
    )
    support: Support = field(default_factory=lambda: Support("real2"))
    location: ClassVar[bool] = True

    def log_density(self, x, theta):
        # adding the two squared columns rounds as a sum over the last axis
        # does, at a fraction of a length-2 reduction's cost
        x = np.asarray(x, dtype=float)
        sq = np.square(x[..., 0] - theta[..., 0]) + np.square(x[..., 1] - theta[..., 1])
        return -_LOG_2PI - 0.5 * sq

    def score_phi(self, x, theta):
        return (np.asarray(x, dtype=float) - theta) / 2.0

    def fisher_closed_form(self, theta):
        return np.eye(2)

    def draw(self, rng, thetas, n):
        x = rng.standard_normal((len(thetas), n, 2))
        x += thetas[:, None, :]
        return x

    def draw_stats(self, rng, thetas, n):
        # the sum of n draws is N(n theta, n I_2)
        return n * thetas + math.sqrt(n) * rng.standard_normal(thetas.shape)

    def suff_stats(self, obs_mat):
        return np.sum(obs_mat, axis=1)

    def loglik_from_stats(self, stats, n, thetas):
        # the shared grid keeps the plain product: einsum rounds it differently
        if thetas.ndim == 2:
            lin = stats @ thetas.T
        else:
            lin = np.einsum("rk,rgk->rg", stats, thetas)
        return lin - 0.5 * n * np.sum(thetas**2, axis=-1)

    log_tail = _gaussian_log_tail


@dataclass(frozen=True)
class Bernoulli(ParametricFamily):
    """Bernoulli(theta) on {0, 1}."""

    name: str = "bernoulli"
    d: int = 1
    obs_dim: int = 1
    theta_domain: Box = field(default_factory=lambda: Box(np.array([0.01]), np.array([0.99])))
    support: Support = field(default_factory=lambda: Support("binary"))

    def log_density(self, x, theta):
        x = np.asarray(x, dtype=float)
        theta = theta[..., 0]
        return x * np.log(theta) + (1.0 - x) * np.log1p(-theta)

    def score_phi(self, x, theta):
        x = np.asarray(x, dtype=float)[..., None]
        return (x - theta) / (2.0 * theta * (1.0 - theta))

    def fisher_closed_form(self, theta):
        t = theta[0]
        return np.array([[1.0 / (t * (1.0 - t))]])

    def draw(self, rng, thetas, n):
        x = rng.random((len(thetas), n))
        np.less(x, thetas[:, :1], out=x)
        return x

    def draw_stats(self, rng, thetas, n):
        # the number of ones is Binomial(n, theta)
        return rng.binomial(n, thetas).astype(float)

    def suff_stats(self, obs_mat):
        return np.sum(obs_mat, axis=1)[:, None]

    def loglik_from_stats(self, stats, n, thetas):
        # xlogy: an all-zeros or all-ones sample has a finite likelihood at the
        # boundary MLE 0 or 1, where k log(theta) would be 0 * -inf
        th = thetas[..., 0]
        k = stats[:, :1]
        return special.xlogy(k, th) + special.xlog1py(n - k, -th)

    def log_tail(self, pt, hits):
        # MLE, and psi while the truncation cannot bind, as the atoms k = 0..n
        # the event's own indicator keeps (k ones, n - k zeros): a sf/floor
        # shortcut can put a boundary atom on the wrong side of the region
        from scipy import stats as sps
        if pt.event.estimator not in ("mle", "psi"):
            return super().log_tail(pt, hits)
        n, t0 = pt.n, float(pt.theta0[0])
        phimax = max(t0, 1.0 - t0) / (2.0 * t0 * (1.0 - t0))
        if pt.event.estimator == "psi" and pt.eps / pt.u_n <= phimax:
            raise DomainError("truncation active: no exact tail for the truncated score")
        ks = np.arange(n + 1, dtype=float)
        mask = hits(ks[:, None], np.tile([1.0, 0.0], (n + 1, 1)), np.stack((ks, n - ks), axis=1))
        if not mask.any():
            return -math.inf
        return float(special.logsumexp(sps.binom.logpmf(ks[mask], n, float(pt.theta_gen[0]))))


@dataclass(frozen=True)
class ExponentialRate(ParametricFamily):
    """Exponential with rate theta on the half line: f(x) = theta e^(-theta x)."""

    name: str = "exponential"
    d: int = 1
    obs_dim: int = 1
    theta_domain: Box = field(default_factory=lambda: Box(np.array([0.1]), np.array([10.0])))
    support: Support = field(default_factory=lambda: Support("halfline"))

    def log_density(self, x, theta):
        x = np.asarray(x, dtype=float)
        theta = theta[..., 0]
        return np.log(theta) - theta * x

    def score_phi(self, x, theta):
        x = np.asarray(x, dtype=float)[..., None]
        return (1.0 / theta - x) / 2.0

    def fisher_closed_form(self, theta):
        return np.array([[1.0 / theta[0] ** 2]])

    def draw(self, rng, thetas, n):
        return rng.exponential(1.0 / thetas[:, :1], (len(thetas), n))

    def draw_stats(self, rng, thetas, n):
        # the sum of n draws is Gamma(n, scale 1/theta)
        return rng.standard_gamma(n, thetas.shape) / thetas

    def mle_from_stats(self, stats, n):
        return 1.0 / (stats / n)

    def suff_stats(self, obs_mat):
        return np.sum(obs_mat, axis=1)[:, None]

    def loglik_from_stats(self, stats, n, thetas):
        th = thetas[..., 0]
        return n * np.log(th) - stats[:, :1] * th

    def log_tail(self, pt, hits):
        # the MLE 1/xbar on a half-space, as a Gamma tail of the sum
        from scipy import stats as sps
        region, n, t0, tg = pt.event.region, pt.n, float(pt.theta0[0]), float(pt.theta_gen[0])
        if pt.event.estimator != "mle" or region.shape != "half_space":
            return super().log_tail(pt, hits)
        a = float(region.a[0])
        rate_thr = tg + pt.u_n * region.c * t0 / a  # estimate 1/xbar crosses this
        if rate_thr <= 0:
            return 0.0 if a > 0 else -math.inf
        tail = sps.gamma.logcdf if a > 0 else sps.gamma.logsf
        return float(tail(n / rate_thr, a=n, scale=1.0 / tg))


@dataclass(frozen=True)
class LaplaceLocation(ParametricFamily):
    """Laplace(theta, 1): f(x) = exp(-|x - theta|)/2.

    The density has a kink at x = theta, so classical derivative-based
    smoothness is weak while the root-density calculus still works; phi is
    sign(x - theta)/2 almost everywhere.
    """

    name: str = "laplace"
    d: int = 1
    obs_dim: int = 1
    theta_domain: Box = field(default_factory=lambda: Box(np.array([-10.0]), np.array([10.0])))
    support: Support = field(default_factory=lambda: Support("real"))
    gradient_ae: ClassVar[bool] = True
    location: ClassVar[bool] = True

    def log_density(self, x, theta):
        x = np.asarray(x, dtype=float)
        return -math.log(2.0) - np.abs(x - theta[..., 0])

    def score_phi(self, x, theta):
        return np.sign(np.asarray(x, dtype=float)[..., None] - theta) / 2.0

    def fisher_closed_form(self, theta):
        return np.array([[1.0]])

    def draw(self, rng, thetas, n):
        x = rng.laplace(0.0, 1.0, (len(thetas), n))
        x += thetas[:, :1]
        return x

    def draw_window(self, rng, thetas, n, window, rows):
        # Order statistics of n iid draws (David & Nagaraja, Order Statistics,
        # 3rd ed., 2003): j = (n - 1) // 2 points lie below the lower middle
        # order statistic, which is F^-1 of a Beta(j + 1, n - j) variate, and
        # j above the upper one.  For even n the upper one is the least of the
        # n - j - 1 points above the lower one, so its survival is the lower
        # one's times V^(1 / (n - j - 1)), V uniform.  Given the middle pair,
        # each side is iid Laplace truncated at it: a Binomial count of points
        # beyond the window end, and explicit draws between the end and the
        # middle.  The right side is drawn mirrored, in z = theta - x.
        # Reads: the Beta variates, (even n) the V, the (R, 2) Binomial counts
        # row by row, then the uniforms of the explicit points, row by row,
        # left side first; a block reads the uniforms of its own rows, so
        # the blocks read one stream whatever their size.
        loc = thetas[:, 0]
        reps = len(loc)
        j = (n - 1) // 2
        p_lo = rng.beta(j + 1, n - j, reps)
        mid = np.empty((reps, 2))
        mid[:, 0] = _laplace_icdf(p_lo)
        if n % 2:
            mid[:, 1] = mid[:, 0]
        else:
            mid[:, 1] = -_laplace_icdf((1.0 - p_lo) * rng.random(reps) ** (1.0 / (n - j - 1)))
        mid += loc[:, None]
        lo, hi = window(mid)
        f_end = _laplace_cdf(np.stack((lo - loc, loc - hi), axis=1))
        f_mid = _laplace_cdf(np.stack((mid[:, 0] - loc, loc - mid[:, 1]), axis=1))
        beyond = rng.binomial(j, np.minimum(f_end / f_mid, 1.0))
        medians = mid.mean(axis=1, keepdims=True)

        def block(b):
            between = (j - beyond[b]).ravel()
            u = rng.random(int(between.sum()))
            f0 = np.repeat(f_end[b].ravel(), between)
            y = _laplace_icdf(f0 + u * (np.repeat(f_mid[b].ravel(), between) - f0))
            side = np.repeat(np.tile([1.0, -1.0], len(between) // 2), between)
            x = np.repeat(np.repeat(loc[b], 2), between) + side * y
            # columns: the parked points, the middle pair, then the explicit
            # points padded with weight-0 copies of lo
            inner = between.reshape(-1, 2).sum(axis=1)
            width = 4 + int(inner.max(initial=0))
            values = np.empty((len(inner), width))
            counts = np.zeros((len(inner), width))
            values[:, 0], values[:, 1], values[:, 2:4] = lo[b] - 1.0, hi[b] + 1.0, mid[b]
            counts[:, :2] = beyond[b]
            counts[:, 2] = 1.0
            counts[:, 3] = 1.0 - n % 2
            filled = np.arange(width - 4) < inner[:, None]
            values[:, 4:] = lo[b, None]
            values[:, 4:][filled] = x
            counts[:, 4:][filled] = 1.0
            return values, counts, medians[b]

        return (block(slice(first, first + rows)) for first in range(0, reps, rows))

    def mle_batch(self, obs_mat):
        # the sample median by selection, bitwise equal to np.median on finite
        # rows (the middle element, or the mean of the two middle ones), without
        # the extra order statistic np.median partitions out to find NaNs
        n = obs_mat.shape[1]
        k = n // 2
        if n % 2:
            return np.partition(obs_mat, k, axis=1)[:, k : k + 1]
        part = np.partition(obs_mat, (k - 1, k), axis=1)
        return (part[:, k - 1 : k] + part[:, k : k + 1]) / 2.0

    def log_tail(self, pt, hits):
        # the MLE on a half-space: either direction asks whether the median
        # passes theta_gen by s, as at least (n + 1) / 2 of the n draws do
        from scipy import stats as sps
        region, n = pt.event.region, pt.n
        if pt.event.estimator != "mle" or region.shape != "half_space":
            return super().log_tail(pt, hits)
        if n % 2 == 0:
            raise DomainError("the Laplace median tail is closed-form for odd n only")
        s = pt.u_n * region.c / float(pt.fisher.sqrt[0, 0])
        q = 0.5 * math.exp(-s) if s >= 0 else 1.0 - 0.5 * math.exp(s)
        return float(sps.binom.logsf((n - 1) // 2, n, q))


def _laplace_cdf(y):
    """Standard Laplace distribution function."""
    half_tail = 0.5 * np.exp(-np.abs(y))
    return np.where(y < 0.0, half_tail, 1.0 - half_tail)


def _laplace_icdf(p):
    """Standard Laplace quantile function."""
    return np.copysign(np.log(2.0 * np.minimum(p, 1.0 - p)), p - 0.5)


_FAMILIES: dict[str, Callable[[], ParametricFamily]] = {
    "gaussian": GaussianLocation,
    "gaussian2": GaussianLocation2,
    "bernoulli": Bernoulli,
    "exponential": ExponentialRate,
    "laplace": LaplaceLocation,
}


def loglik_grid(fam: ParametricFamily, obs, thetas, counts=None) -> np.ndarray:
    """(R, G) log-likelihoods of the replication rows of obs on a parameter grid.

    obs is (R, n[, obs_dim]); thetas is one grid (G, d) shared by every row
    or one grid (R, G, d) per row.  counts (R, n), when given, makes each row
    a weighted sample (see draw_window) that counts each value that often.
    An unweighted sample of a family with a sufficient statistic is evaluated
    through it, up to a theta-free constant; any other sums the log density
    over the sample one grid point at a time, so that no (R, G, n) temporary
    is held.
    """
    stats = None if counts is not None else fam.suff_stats(obs)
    if stats is not None:
        return fam.loglik_from_stats(stats, obs.shape[1], thetas)
    out = np.empty((obs.shape[0], thetas.shape[-2]))
    for g in range(thetas.shape[-2]):
        ld = fam.log_density(obs, thetas[..., g, None, :])
        out[:, g] = np.sum(ld, axis=-1) if counts is None else np.einsum("rn,rn->r", ld, counts)
    return out


def family_names() -> list[str]:
    return sorted(_FAMILIES)


def get_family(name: str) -> ParametricFamily:
    """Resolve a family by identifier."""
    try:
        return _FAMILIES[name]()
    except KeyError:
        raise DomainError(f"unknown family {name!r}; known: {family_names()}") from None


# ---------------------------------------------------------------------------
# Quadrature over the observation space
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    # an eigenvalue problem of size order: too dear to repeat per integral;
    # the cached arrays are shared, so they are made read-only
    nodes, wts = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = wts.flags.writeable = False
    return nodes, wts


def tensor_rule(order: int, half: float, panels: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre rule on the square [-half, half]^2.

    Each axis is cut into `panels` equal panels with `order` nodes each.
    Returns the (N, 2) node offsets from the square's centre and the (N,)
    weights, axis 0 varying slowest.
    """
    nodes, wts = _leggauss(order)
    h = half / panels
    mids = h * (2.0 * np.arange(panels) + 1.0 - panels)
    y = (mids[:, None] + nodes * h).ravel()
    w = np.tile(wts * h, panels)
    return product_grid([y, y]), (w[:, None] * w[None, :]).reshape(-1)


def product_grid(axes) -> np.ndarray:
    """The (N, len(axes)) points of the product of 1-d axes, axis 0 varying
    slowest; one axis gives its points as a column."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


# QUADPACK's 21-point Gauss-Kronrod rule QK21 (Piessens, de Doncker-Kapenga,
# Ueberhuber & Kahaner, QUADPACK, Springer 1983): the nodes in [0, 1) from
# the outside in, their Kronrod weights, and the weights of the 10-point Gauss
# rule on the nodes of odd index
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208067107245, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# the same rules on all 21 nodes of [-1, 1] in increasing order
_GK_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
_GK_KRONROD = np.concatenate([_WGK, _WGK[-2::-1]])
_GK_GAUSS = np.zeros(11)
_GK_GAUSS[1::2] = _WG
_GK_GAUSS = np.concatenate([_GK_GAUSS, _GK_GAUSS[-2::-1]])


def _gk21(fn, lo, hi, anchor, side, row) -> tuple[np.ndarray, np.ndarray]:
    """QK21 on every interval [lo_i, hi_i] at once, with one call of fn.

    Returns each interval's Kronrod value and QUADPACK's error estimate.
    Where side_i is 0 the interval is in x; where it is +1 (-1) it is in
    t of x = anchor_i + (1 - t)/t (anchor_i - (1 - t)/t), and fn carries the
    Jacobian 1/t^2, as in QUADPACK's QAGI.  fn(x, r) evaluates row r[j]'s
    integrand at x[j], interval i's nodes being row row_i's.
    """
    half = 0.5 * (hi - lo)
    t = (lo + half)[:, None] + half[:, None] * _GK_NODES
    x = t.copy()
    mapped = side != 0
    tm = t[mapped]
    x[mapped] = anchor[mapped, None] + side[mapped, None] * ((1.0 - tm) / tm)
    f = np.asarray(fn(x.ravel(), np.repeat(row, _GK_NODES.size)), dtype=float)
    f = np.array(np.broadcast_to(f, x.size)).reshape(x.shape)
    # a value that overflows here makes the total non-finite, which the caller
    # reports
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        f[mapped] /= tm * tm
        # plain sums of products: a BLAS dot rounds by its thread count
        kronrod = np.sum(f * _GK_KRONROD, axis=1)
        gauss = np.sum(f * _GK_GAUSS, axis=1)
        resabs = np.sum(np.abs(f) * _GK_KRONROD, axis=1) * half
        resasc = np.sum(np.abs(f - 0.5 * kronrod[:, None]) * _GK_KRONROD, axis=1) * half
        err = np.abs(kronrod - gauss) * half
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    # QUADPACK's floor: no estimate below the rounding of the sum itself
    err = np.maximum(err, 50.0 * np.finfo(float).eps * resabs)
    return kronrod * half, err


def _integrate_line(fn, fam: ParametricFamily, breaks) -> np.ndarray:
    """Adaptive QK21 over the family's 1-d support for every row of breaks
    at once; see integrate_support, which integrates one row.

    breaks[k] holds row k's points, numbers or length-1 vectors, and the
    row splits at each; fn(x, row) evaluates row row[j]'s integrand at x[j].
    Each round calls fn once, on the new subintervals of every row still
    open.  A row keeps its own pieces, tolerance and subinterval cap, and
    its subintervals stay contiguous in the order the row alone would give
    them, so its total, their np.sum, is the row's alone bit for bit.
    Returns the rows' integrals; a row that fails raises QuadratureError.
    """
    lo = 0.0 if fam.support.kind == "halfline" else -np.inf
    pieces = []  # (lo, hi, anchor, side, row, the row's piece count)
    for k, row_breaks in enumerate(breaks):
        pts = np.hstack([[], *row_breaks])
        pts = sorted({float(b) for b in pts if np.isfinite(b) and b > lo})
        if lo == -np.inf and not pts:
            pts = [0.0]
        edges = [lo] + pts + [np.inf]
        pieces += [
            ((0.0, 1.0, b, -1.0) if a == -np.inf else (0.0, 1.0, a, 1.0) if b == np.inf
             else (a, b, 0.0, 0.0)) + (k, len(edges) - 1)
            for a, b in zip(edges[:-1], edges[1:])
        ]
    p_lo, p_hi, anchor, side, p_row, count = np.array(pieces).T
    p_row = p_row.astype(int)
    n_rows = len(breaks)
    # each piece may spend 1/count of its row's tolerance, spread by width
    share = 1.0 / ((p_hi - p_lo) * count)
    piece = np.arange(p_lo.size)
    # the subintervals' ends, values and error estimates, as rows of one array
    sub = np.array([p_lo, p_hi, *_gk21(fn, p_lo, p_hi, anchor, side, p_row)])
    total, toterr = np.empty(n_rows), np.empty(n_rows)
    active = np.ones(n_rows, dtype=bool)
    while True:
        a, b, res, err = sub
        row = p_row[piece]
        bounds = np.searchsorted(row, np.arange(n_rows + 1)).tolist()
        # only a row that split has a new total; np.add.reduce is np.sum
        # without its dispatch
        for k in np.nonzero(active)[0].tolist():
            total[k] = np.add.reduce(res[bounds[k] : bounds[k + 1]])
            toterr[k] = np.add.reduce(err[bounds[k] : bounds[k + 1]])
        tol = np.maximum(_QUAD_EPSABS, _QUAD_EPSABS * np.abs(total))
        active &= np.isfinite(total) & np.isfinite(toterr) & (toterr > tol)
        split = np.nonzero(active[row] & (err > tol[row] * (b - a) * share[piece]))[0]
        # at the cap, a piece bisects only its largest errors, as many as it has room for
        split = split[np.lexsort((-err[split], piece[split]))]
        rank = np.arange(split.size) - np.searchsorted(piece[split], piece[split])
        room = _QUAD_LIMIT - np.bincount(piece, minlength=p_lo.size)
        split = split[rank < room[piece[split]]]
        active = np.bincount(row[split], minlength=n_rows) > 0
        if split.size == 0:
            break
        mid = 0.5 * (a[split] + b[split])
        new_a = np.concatenate([a[split], mid])
        new_b = np.concatenate([mid, b[split]])
        new_piece = np.tile(piece[split], 2)
        new = _gk21(fn, new_a, new_b, anchor[new_piece], side[new_piece], p_row[new_piece])
        keep = np.ones(piece.size, dtype=bool)
        keep[split] = False
        # per row: its kept subintervals, its left halves, its right halves
        piece = np.concatenate([piece[keep], new_piece])
        order = np.argsort(p_row[piece], kind="stable")
        piece = piece[order]
        sub = np.concatenate([sub[:, keep], [new_a, new_b, *new]], axis=1)[:, order]
    ok = np.isfinite(total) & (toterr <= np.maximum(_QUAD_ACCEPT, _QUAD_ACCEPT * np.abs(total)))
    if not ok.all():
        k = np.argmin(ok)
        raise QuadratureError(f"quadrature error {toterr[k]:.2e} at value {total[k]:.6e}")
    return total


def integrate_support(fam: ParametricFamily, fn, breaks=()) -> float:
    """Integrate fn over the family's observation space.

    breaks are points of the observation space, each a number or a
    length-obs_dim vector such as a parameter: callers pass the parameters
    their integrand reads, where it may kink or peak.  Continuous 1-d
    supports are split at every point's coordinate and integrated by a
    vectorized adaptive Gauss-Kronrod rule, QUADPACK's QK21: infinite pieces
    are mapped to t in (0, 1] by x = a +- (1 - t)/t as in QAGI, and a line
    with no points is split at 0.  Each round calls fn once, on the 21 nodes
    of every new subinterval of every piece, and bisects the subintervals
    whose error estimate exceeds their share of the tolerance (their piece's
    equal part, spread by width), at most 200 per piece.  It stops once the
    summed estimate is at most max(1e-10, 1e-10 |total|); a non-finite
    total, or an estimate above max(1e-9, 1e-9 |total|) where no subinterval
    may be bisected further, raises QuadratureError.  fn must be vectorized
    over a 1-d array of points.
    The binary support is summed exactly and ignores the points.  The plane
    uses a tensor Gauss-Legendre rule at orders 96 and 128 on a square window
    centred at the mean of the 2-vector points (the origin if there are
    none; numbers are ignored), half-width 14 plus their spread from that
    mean, so the truncated mass of a unit-scale density is below double
    precision.  The two orders must agree; where they do not, each axis is
    split into two panels meeting at the window centre, which leaves an
    integrand kinked there (|x - theta|^m about theta, a norm envelope about
    0) smooth on every panel.  fn must be vectorized over an (N, 2) array.
    """
    if fam.support.kind == "binary":
        return float(fn(np.array(0.0)) + fn(np.array(1.0)))

    if fam.support.kind == "real2":
        centers = [np.asarray(b, dtype=float).reshape(-1) for b in breaks if np.size(b) == 2]
        centers = [c for c in centers if np.all(np.isfinite(c))]
        mid = np.mean(centers, axis=0) if centers else np.zeros(2)
        spread = max((float(np.linalg.norm(c - mid)) for c in centers), default=0.0)
        half = 14.0 + spread
        for panels in (1, 2):
            vals = []
            for order in (96, 128):
                offsets, wmesh = tensor_rule(order, half, panels)
                # a plain sum of products: a BLAS dot rounds by its thread count
                vals.append(float(np.sum(np.asarray(fn(mid + offsets), dtype=float) * wmesh)))
            err = abs(vals[1] - vals[0])
            if err <= max(_QUAD_ACCEPT * 10, 1e-8 * abs(vals[1])):
                return vals[1]
        raise QuadratureError(f"2-d quadrature error {err:.2e} too large")

    return float(_integrate_line(lambda x, row: fn(x), fam, [breaks])[0])


def expect(fam: ParametricFamily, theta, h, breaks=()) -> float:
    """E_theta[h(X)] by quadrature or exact summation.

    integrate_support gets theta and the extra points in breaks, such as
    the other parameters h reads."""
    theta = _as_theta(fam, theta)

    def integrand(x):
        return h(x) * np.exp(fam.log_density(x, theta))

    return integrate_support(fam, integrand, [theta, *breaks])


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def log_density(fam: ParametricFamily, x, theta):
    """Log density at x; validates the parameter and the observation."""
    theta = _as_theta(fam, theta)
    if not fam.support.check(np.asarray(x, dtype=float)):
        raise SupportError(f"observation outside support of {fam.name}")
    return fam.log_density(np.asarray(x, dtype=float), theta)


def draw_sample(fam: ParametricFamily, theta, n: int, seed: int) -> SampleBatch:
    """Draw an i.i.d. sample; identical (seed, theta, n) reproduces it bit-exactly."""
    theta = _as_theta(fam, theta)
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    obs = fam.draw(rng, theta[None, :], int(n))[0]
    return SampleBatch(family=fam.name, theta_gen=theta, n=int(n), observations=obs, seed=int(seed))


def hellinger_g(fam: ParametricFamily, theta0, tau, x):
    """g(x, tau) = sqrt(f(x, theta0+tau)/f(x, theta0)) - 1, vectorized in x."""
    theta0 = _as_theta(fam, theta0)
    t1 = _as_theta(fam, theta0 + _as_step(fam, tau, "tau"))
    x = np.asarray(x, dtype=float)
    return np.exp(0.5 * (fam.log_density(x, t1) - fam.log_density(x, theta0))) - 1.0


def hellinger_affinity(fam: ParametricFamily, theta0, tau) -> float:
    """Affinity A = integral of sqrt(f0 f1); H^2 = 2(1 - A).

    Always computed by quadrature or exact summation; closed forms stay on
    the oracle side of the test suite.
    """
    theta0 = _as_theta(fam, theta0)
    theta1 = _as_theta(fam, theta0 + _as_step(fam, tau, "tau"))

    def integrand(x):
        return np.exp(0.5 * (fam.log_density(x, theta0) + fam.log_density(x, theta1)))

    return min(integrate_support(fam, integrand, [theta0, theta1]), 1.0)


def score(fam: ParametricFamily, theta0, x) -> np.ndarray:
    """phi(x) as a length-d vector, from the family's closed form."""
    theta0 = _as_theta(fam, theta0)
    val = fam.score_phi(np.asarray(x, dtype=float), theta0)
    return np.atleast_1d(val[..., 0]) if fam.d == 1 else val


def phi_matrix(fam: ParametricFamily, obs, theta0) -> np.ndarray:
    """phi at every observation, shaped (n, d)."""
    theta0 = _as_step(fam, theta0, "theta0")
    return fam.score_phi(np.asarray(obs, dtype=float), theta0).reshape(-1, fam.d)


def fisher_information(fam: ParametricFamily, theta0) -> FisherInfo:
    """I(theta0) = 4 E[phi phi^T], with symmetric square roots attached."""
    theta0 = _as_theta(fam, theta0)
    mat = fam.fisher_closed_form(theta0)
    if mat is None:
        mat = fisher_by_quadrature(fam, theta0)
    mat = np.asarray(mat, dtype=float).reshape(fam.d, fam.d)
    if np.max(np.abs(mat - mat.T)) > 1e-12:
        raise RankError("Fisher matrix not symmetric")
    w, v = np.linalg.eigh(mat)
    if np.min(w) < 1e-10:
        raise RankError(f"Fisher matrix near-singular: min eigenvalue {np.min(w):.3e}")
    sqrt = (v * np.sqrt(w)) @ v.T
    inv_sqrt = (v / np.sqrt(w)) @ v.T
    return FisherInfo(theta=theta0, matrix=mat, sqrt=sqrt, inv_sqrt=inv_sqrt)


def fisher_by_quadrature(fam: ParametricFamily, theta0) -> np.ndarray:
    """4 E[phi phi^T] computed by quadrature, bypassing any closed form."""
    theta0 = _as_theta(fam, theta0)
    d = fam.d
    out = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):

            def h(x, i=i, j=j):
                p = fam.score_phi(x, theta0)
                return p[..., i] * p[..., j]

            out[i, j] = out[j, i] = 4.0 * expect(fam, theta0, h)
    return out

