"""Rare-event probabilities for estimator deviations, by importance sampling.

Events are deviations of size u_n in the standardized parameter scale:
W = I(theta0)^{1/2} (estimate - theta_gen) / u_n landing in an open region,
with theta_gen = theta0 + u_n b.  Their probabilities decay like
exp(-n u_n^2 / 2 * inf_{x in region} |x|^2), so everything here works in
the log domain: parameter-shift exponential tilting with exact likelihood
ratio weights, logsumexp accumulation, and a one-sided bound instead of a
point estimate when no hit is observed.

Determinism contract: the chunk of schedule point i under master seed s whose
first replication is r draws all its replications from one numpy
Generator(seed=[s, i, r]), pilot chunks from [s, i, 2^33 + r].  A stratified
psi point (below) draws its main chunks from [s, i, 2^32 + r] instead, so
that they are not the draws of a statistic event at the same point, and its
stratum chunks from [s, i, 2^32 + 2^31 + r]; n_reps stays below 2^31.  A
chunk draws the component picks of all its replications first, then its full
samples in row blocks of at most _BLOCK_VALUES observations, in row order
from the same generator; since a family's draw reads the generator row after row, the
blocks hold exactly the rows one draw of the whole chunk would.  A family
with a window law (ParametricFamily.draw_window) draws the middle order
statistics and the counts beyond the window of the whole chunk first, then
the points inside the window in the same row blocks, row after row.  Every
replication's arithmetic reads its own row only, and the per-replication
vectors are joined before the chunk's log-domain reductions.  Chunk bounds
depend only on the sample size n and partial results are combined in chunk
order, so output is byte-identical for any worker count.  A stratum's chunk
bounds also come from chunk_size(n), over its own replication count M, and
its chunks combine in chunk order too.

Worker processes: chunks fix the streams; sampling.run_chunks runs them in
tasks that are groups of whole consecutive chunks, and starts processes only
when the chunks after the first hold at least two tasks of values, judged by
what the first chunk drew.  Results combine in chunk order, so no schedule
choice reaches an artifact.

Pilot ladder: an event with no region (the couplings) picks its tilt from
seeded pilot runs at shifts b = 0, 0.5, ..., 4, each on its own stream.  The
first rung whose event frequency reaches 0.2 wins, else the most frequent
rung.  Rungs run one at a time, in ladder order and in the calling process,
and the ladder stops at the first rung that wins; no rung's result depends on
another, so the choice is the one the full ladder would make.

Statistic path: when the event's indicator and the tilt weights read the data
only through a sufficient statistic (MLE, Bayes, posterior-mass and lr_vs_wald
events on a family with a draw_stats hook), a chunk draws that statistic from
its exact law, O(1) per replication, instead of n observations.

Window path: on a family with a draw_window hook (Laplace), every event draws
each replication from its exact law as a weighted window sample: its middle
order statistics, and given them a Binomial count of the points beyond the
window on each side and the points inside it.  The window (_window) holds
every parameter the events read, the log density is linear in theta outside
it, and the score sign(x - theta0)/2 is constant there, so log-likelihood
differences, the median and psi are those of the full sample.

Stratified psi: on a family that knows the law of its score's truncation
(ParametricFamily.log_score_tail; Gaussian location), a psi event is split as
p = E_Q[h0 w] + Q(A^c) E_Q[(h - h0) w | A^c], with h the event on the
truncated score, h0 on the untruncated one (a function of the statistic),
w the tilt weight and A^c the event that some observation is truncated.  The
N main replications draw the statistic; M = ceil(N Q(A^c)) stratum
replications draw full samples conditioned on A^c (_stratum_chunk).

Other events that read the truncated score (psi elsewhere, mle_vs_psi,
lr_vs_psi2) and families with neither hook draw full samples.

Exact tails (method="exact") are closed forms kept on the families
(ParametricFamily.log_tail), which read each event's estimator tag.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar, Iterator, Optional

import numpy as np
from scipy.special import logsumexp

from .errors import (
    BudgetError,
    DegenerateWeightsWarning,
    DomainError,
    GridError,
    TiltDomainError,
)
from .families import FisherInfo, ParametricFamily, fisher_information, loglik_grid
from .lan import TruncationPolicy, truncated_points, truncated_score
from .estimators import (
    LossSpec,
    PriorSpec,
    bayes_estimates,
    bayes_loss_supported,
    default_posterior_box,
    grid_nodes,
)
from .regions import RegionSpec, rate_functional
from .sampling import rep_rng, run_chunks

# replication indices of a stratified psi point's main and stratum draws,
# disjoint from the statistic events' and from each other below 2^31 reps
_PSI_BASE = 2**32
_STRATUM_BASE = 2**32 + 2**31
_PILOT_BASE = 2**33  # replication indices for pilot draws, disjoint from main runs
_PILOT_REPS = 400
_PILOT_B_GRID = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
_PILOT_TARGET_FREQ = 0.2  # the first rung at or above this event frequency wins
_ZERO_HIT_NUMERATOR = 3.0  # one-sided ~95% bound when no replication hits
# observations per row block of a full-sample chunk: a block's log-likelihood
# and estimator passes stay in cache, where a whole chunk's (R, n) arrays
# (about 32 MB) would run at memory bandwidth
_BLOCK_VALUES = 2**16


# ---------------------------------------------------------------------------
# Schedules, budgets, results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Budget:
    n_reps: int = 100_000
    max_total_draws: int = 10**9
    min_reps: int = 1000

    def __post_init__(self):
        for f in fields(self):
            v = int(getattr(self, f.name))
            if v < 1:
                raise GridError(f"{f.name} must be at least 1")
            object.__setattr__(self, f.name, v)


@dataclass(frozen=True)
class DeviationSchedule:
    """u_n = c n^{-alpha}; alpha in (0, 1/2) is the moderate zone, alpha = 0
    keeps u fixed for the large-deviation sweeps."""

    n_values: tuple
    alpha: float
    c: float = 1.0
    b: Optional[np.ndarray] = None

    def __post_init__(self):
        ns = tuple(int(v) for v in self.n_values)
        if len(ns) == 0 or any(v < 2 for v in ns):
            raise GridError("n_values must be nonempty with entries >= 2")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise GridError("n_values must be strictly increasing")
        object.__setattr__(self, "n_values", ns)
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "c", float(self.c))
        if not (0.0 <= self.alpha < 0.5):
            raise GridError("alpha must lie in [0, 1/2)")
        if not self.c > 0:
            raise GridError("c must be positive")
        if self.b is not None:
            object.__setattr__(self, "b", np.atleast_1d(np.asarray(self.b, dtype=float)))

    def u_of(self, n: int) -> float:
        return self.c * float(n) ** (-self.alpha)


@dataclass(frozen=True)
class ProbEstimate:
    p_hat: float
    log_p: float
    stderr_log: float
    method: str
    n_reps: int
    seed: int
    # True when log_p is a bound, not an estimate: no hits, or a stratified
    # psi estimate at or below 0 (p_hat then keeps its signed value)
    upper_bound: bool = False


@dataclass(frozen=True)
class RatePoint:
    n: int
    u_n: float
    estimate: ProbEstimate

    @property
    def normalized_rate(self) -> float:
        return -self.estimate.log_p / (self.n * self.u_n**2 / 2.0)


@dataclass(frozen=True)
class RateCurve:
    points: tuple
    target: float  # inf over the region of |x|^2; nan for discrepancy curves
    label: str

    def normalized_rates(self) -> np.ndarray:
        return np.array([p.normalized_rate for p in self.points])


# ---------------------------------------------------------------------------
# Event descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MleEvent:
    region: RegionSpec
    estimator: ClassVar[str] = "mle"  # the tag ParametricFamily.log_tail reads


@dataclass(frozen=True)
class PsiEvent:
    region: RegionSpec
    estimator: ClassVar[str] = "psi"


@dataclass(frozen=True)
class BayesEvent:
    region: RegionSpec
    estimator: ClassVar[str] = "bayes"
    prior: PriorSpec = field(default_factory=PriorSpec.flat)
    loss: LossSpec = field(default_factory=lambda: LossSpec.power(2.0))
    resolution: int = 256


@dataclass(frozen=True)
class PosteriorMassEvent:
    region: RegionSpec
    estimator: ClassVar[str] = "posterior_mass"
    threshold: float = 0.5
    prior: PriorSpec = field(default_factory=PriorSpec.flat)
    resolution: int = 256


@dataclass(frozen=True)
class DiscrepancyEvent:
    """Couplings between estimators: the event is the coupling failing.

    kinds (delta scales the failure threshold):
      mle_vs_psi:  |I^{1/2}(mle - theta0) - 2 n^{-1/2} psi| > delta u_n
      lr_vs_wald:  |2 sum_xi - n (mle-theta_gen)' I (mle-theta_gen)| > 2 delta n u_n^2
      lr_vs_psi2:  |sum_xi - 2 |psi - (sqrt(n) u_n / 2) I^{1/2} b|^2| > delta n u_n^2
    """

    kind: str
    delta: float

    def __post_init__(self):
        if self.kind not in ("mle_vs_psi", "lr_vs_wald", "lr_vs_psi2"):
            raise GridError(f"unknown discrepancy kind {self.kind!r}")
        if not self.delta > 0:
            raise GridError("delta must be positive")


def _event_region(event) -> Optional[RegionSpec]:
    return getattr(event, "region", None)


# ---------------------------------------------------------------------------
# Chunk kernel (module level: it is pickled into worker processes)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Point:
    """One schedule point: everything its exact tail, crude guard and chunks
    read (pickled into workers).

    components are the parameters the replications are drawn from, one picked
    uniformly per replication; point_index keys the chunk streams.  log_q
    holds log P(|phi(X)| >= eps/u_n) for one observation under each
    component when the point's psi event is stratified (see estimate_prob),
    else None.
    """

    fam: ParametricFamily
    event: object
    theta0: np.ndarray
    theta_gen: np.ndarray
    n: int
    u_n: float
    b: np.ndarray
    eps: float
    fisher: FisherInfo
    seed: int
    point_index: int
    components: tuple = ()
    log_q: Optional[np.ndarray] = None


@dataclass(frozen=True)
class _Draws:
    """One block of a chunk's replications: their sufficient statistics
    (R, k), or None when the family has none, and their samples, or None when
    the event reads only the statistics.  The samples are full (R, n[,
    obs_dim]) with counts None, or weighted window samples (R, m) with their
    counts and medians (see ParametricFamily.draw_window).  A statistic chunk
    is one block; a sample chunk comes in row blocks of at most _BLOCK_VALUES
    observations of a full sample."""

    fam: ParametricFamily
    n: int
    stats: Optional[np.ndarray]
    obs: Optional[np.ndarray]
    counts: Optional[np.ndarray] = None
    medians: Optional[np.ndarray] = None

    def loglik(self, thetas) -> np.ndarray:
        """(R, G) log-likelihoods on a shared (G, d) or per-row (R, G, d) grid."""
        if self.stats is None:
            return loglik_grid(self.fam, self.obs, thetas, self.counts)
        return self.fam.loglik_from_stats(self.stats, self.n, thetas)

    def values(self) -> int:
        """How many values the block drew: its statistics, its sample points,
        or the weighted points of its window samples (padding left out, so
        the count does not depend on the row blocks)."""
        if self.obs is None:
            return self.stats.size
        if self.counts is None:
            return self.obs.size
        return int(np.count_nonzero(self.counts))

    def mle(self) -> np.ndarray:
        if self.stats is not None:
            return self.fam.mle_from_stats(self.stats, self.n)
        if self.medians is not None:
            return self.medians
        est = self.fam.mle_batch(self.obs)
        if est is None:
            raise DomainError(f"family {self.fam.name!r} lacks a batch estimator for MC kernels")
        return est


def _psi_matrix(pt: _Point, draws: _Draws) -> np.ndarray:
    """psi = n^{-1/2} I^{-1/2} sum of truncated phi, per replication; (R, d).
    On a stratified point (log_q set) the score is left untruncated and read
    from the statistic."""
    if pt.log_q is not None:
        total = pt.fam.score_sum_from_stats(draws.stats, pt.n, pt.theta0)
    else:
        phi = truncated_score(pt.fam, pt.theta0, TruncationPolicy(pt.eps, pt.u_n), draws.obs)
        if draws.counts is None:
            total = phi.sum(axis=1)
        else:
            total = np.einsum("rm,rmk->rk", draws.counts, phi)
    return (total @ pt.fisher.inv_sqrt.T) / math.sqrt(pt.n)


def _window(pt: _Point, mid: np.ndarray):
    """Window ends (lo, hi), each (R,), of a chunk's window samples: the hull
    of theta0, theta_gen, the components, each replication's (R, 2) middle
    order statistics and, for a grid-posterior event, its posterior box.
    Every parameter the events read lies in it."""
    fixed = np.concatenate((pt.theta0, pt.theta_gen) + pt.components)
    lo = np.minimum(fixed.min(), mid[:, 0])
    hi = np.maximum(fixed.max(), mid[:, 1])
    if isinstance(pt.event, (BayesEvent, PosteriorMassEvent)):
        # the box _grid_posterior builds about the same medians
        box = default_posterior_box(pt.fam, mid.mean(axis=1, keepdims=True), pt.n, pt.u_n)
        lo = np.minimum(lo, box.lo[:, 0])
        hi = np.maximum(hi, box.hi[:, 0])
    return lo, hi


def _reads_samples(pt: _Point) -> bool:
    """Whether the point's event reads the truncated score, which no statistic
    gives (a stratified psi event reads the untruncated one)."""
    if isinstance(pt.event, DiscrepancyEvent):
        return pt.event.kind != "lr_vs_wald"
    return isinstance(pt.event, PsiEvent) and pt.log_q is None


def _draw_chunk(pt: _Point, start: int, stop: int, stream: int) -> Iterator[_Draws]:
    """Replications start..stop-1 from the chunk's stream, as _Draws blocks in
    row order: a component per replication (when there are several), then the
    statistics as one block, or the window samples or the full samples in row
    blocks."""
    fam = pt.fam
    rng = rep_rng(pt.seed, pt.point_index, stream)
    comps = np.stack(pt.components)
    reps = stop - start
    pick = rng.integers(len(comps), size=reps) if len(comps) > 1 else np.zeros(reps, dtype=int)
    thetas = comps[pick]
    stats = None if _reads_samples(pt) else fam.draw_stats(rng, thetas, pt.n)
    if stats is not None:
        yield _Draws(fam, pt.n, stats, None)
        return
    rows = max(1, _BLOCK_VALUES // (pt.n * fam.obs_dim))
    windows = fam.draw_window(rng, thetas, pt.n, lambda mid: _window(pt, mid), rows)
    if windows is not None:
        for values, counts, medians in windows:
            yield _Draws(fam, pt.n, None, values, counts, medians)
        return
    for lo in range(0, reps, rows):
        obs = fam.draw(rng, thetas[lo : lo + rows], pt.n)
        yield _Draws(fam, pt.n, fam.suff_stats(obs), obs)


def _grid_posterior(draws: _Draws, prior, resolution, n, u_n):
    """Per-replication posterior grids (one dimension): nodes (R, G, 1) and
    normalized weights (R, G)."""
    fam = draws.fam
    if fam.d != 1:
        # a 256-node grid per axis in every replication of a chunk would not fit
        raise DomainError("replication posterior grids support one dimension only")
    nodes = grid_nodes(default_posterior_box(fam, draws.mle(), n, u_n), resolution)
    lw = draws.loglik(nodes)
    if prior.kind != "flat":
        lw += prior.log_density(nodes)
    lw -= lw.max(axis=1, keepdims=True)
    w = np.exp(lw)
    w /= w.sum(axis=1, keepdims=True)
    return nodes, w


def _indicator(pt: _Point, draws: _Draws) -> np.ndarray:
    event, n, u_n = pt.event, pt.n, pt.u_n
    i_sqrt = pt.fisher.sqrt
    if isinstance(event, MleEvent):
        w = (draws.mle() - pt.theta_gen[None, :]) @ i_sqrt.T / u_n
        return event.region.contains(w)
    if isinstance(event, PsiEvent):
        w = 2.0 * _psi_matrix(pt, draws) / (math.sqrt(n) * u_n) - (i_sqrt @ pt.b)[None, :]
        return event.region.contains(w)
    if isinstance(event, BayesEvent):
        nodes, probs = _grid_posterior(draws, event.prior, event.resolution, n, u_n)
        est = bayes_estimates(nodes, probs, event.loss)
        w = (est - pt.theta_gen[None, :]) @ i_sqrt.T / u_n
        return event.region.contains(w)
    if isinstance(event, PosteriorMassEvent):
        return _posterior_masses(pt, draws) > event.threshold
    if isinstance(event, DiscrepancyEvent):
        return _discrepancy_indicator(pt, draws)
    raise DomainError(f"unknown event type {type(event).__name__}")


def _posterior_masses(pt: _Point, draws: _Draws) -> np.ndarray:
    fam, event, n, u_n, theta_gen = pt.fam, pt.event, pt.n, pt.u_n, pt.theta_gen
    i_sqrt = pt.fisher.sqrt
    reg = event.region
    est = draws.mle() if event.prior.kind == "flat" and reg.shape == "half_space" else None
    cdf = None if est is None else fam.flat_posterior_cdf(est, n)
    if cdf is not None:
        # the closed-form posterior truncated to the default sub-box
        box = default_posterior_box(fam, est, n, u_n)
        lo, hi = box.lo[:, 0], box.hi[:, 0]
        a = float(reg.a[0])
        t = theta_gen[0] + u_n * reg.c / (a * float(i_sqrt[0, 0]))
        c_lo, c_hi, c_t = cdf(lo), cdf(hi), cdf(np.clip(t, lo, hi))
        num = c_hi - c_t if a > 0 else c_t - c_lo
        return num / np.maximum(c_hi - c_lo, 1e-300)
    nodes, w = _grid_posterior(draws, event.prior, event.resolution, n, u_n)
    std = (nodes[..., 0] - theta_gen[0]) * float(i_sqrt[0, 0]) / u_n
    inside = reg.contains(std.reshape(-1, 1)).reshape(std.shape)
    return np.sum(w * inside, axis=1)


def _discrepancy_indicator(pt: _Point, draws: _Draws) -> np.ndarray:
    event, n, u_n = pt.event, pt.n, pt.u_n
    est = draws.mle()
    if event.kind == "mle_vs_psi":
        lhs = (est - pt.theta0[None, :]) @ pt.fisher.sqrt.T
        disc = np.linalg.norm(lhs - 2.0 * _psi_matrix(pt, draws) / math.sqrt(n), axis=1)
        return disc > event.delta * u_n
    sum_xi = (draws.loglik(est[:, None, :]) - draws.loglik(pt.theta_gen[None, :]))[:, 0]
    if event.kind == "lr_vs_wald":
        diff = est - pt.theta_gen[None, :]
        wald = n * np.einsum("ri,ij,rj->r", diff, pt.fisher.matrix, diff)
        return np.abs(2.0 * sum_xi - wald) > 2.0 * event.delta * n * u_n**2
    # lr_vs_psi2
    center = _psi_matrix(pt, draws) - 0.5 * math.sqrt(n) * u_n * (pt.fisher.sqrt @ pt.b)[None, :]
    quad = 2.0 * np.sum(center * center, axis=1)
    return np.abs(sum_xi - quad) > event.delta * n * u_n**2


def _log_weights(pt: _Point, lls: list, reps: int) -> np.ndarray:
    """(reps,) log dP_gen/dQ of a chunk's rows, from their (rows, 1 + K)
    log-likelihood blocks at theta_gen and the K components (lls is unread
    when the chunk samples theta_gen itself)."""
    if not _weighted(pt):
        return np.zeros(reps)
    # one logsumexp over the joined rows: a call per block costs more in
    # overhead than the reduction itself
    ll = np.concatenate(lls)
    logq = logsumexp(ll[:, 1:], axis=1) - math.log(len(pt.components))
    return ll[:, 0] - logq


def _weighted(pt: _Point) -> bool:
    # only sampling from theta_gen itself (crude runs, the pilot at b = 0)
    # has unit weights; any other component, however close, is weighted
    comps = pt.components
    return not (len(comps) == 1 and np.array_equal(comps[0], pt.theta_gen))


def _hit_sums(logw: np.ndarray, ind: np.ndarray) -> tuple:
    """log sum w and log sum w^2 over the rows ind selects (-inf for none)."""
    if not ind.any():
        return -math.inf, -math.inf
    return float(logsumexp(logw[ind])), float(logsumexp(2.0 * logw[ind]))


def _sim_chunk(start, stop, pt: _Point):
    """The chunk's hit count and log-domain weight sums over its hits (hits,
    lw_hit, l2w_hit), then how many values it drew (_Draws.values), which
    run_chunks sizes its tasks by."""
    weighted = _weighted(pt)
    grid = np.stack((pt.theta_gen,) + pt.components)
    lls, inds = [], []
    drawn = 0
    stream = start if pt.log_q is None else _PSI_BASE + start
    for draws in _draw_chunk(pt, start, stop, stream):
        drawn += draws.values()
        if weighted:
            lls.append(draws.loglik(grid))
        inds.append(np.asarray(_indicator(pt, draws), dtype=bool))
    ind = np.concatenate(inds)
    return (int(ind.sum()),) + _hit_sums(_log_weights(pt, lls, stop - start), ind) + (drawn,)


def _log_neg_log1p(l):
    """log(-log1p(-e^l)) for l <= 0; it equals l once e^l is below 1e-17."""
    small = l < -40.0
    return np.where(small, l, np.log(-np.log1p(-np.exp(np.where(small, -40.0, l)))))


def _log_truncated(log_q, n: int) -> np.ndarray:
    """log P(A^c) = log(1 - (1 - q)^n), the log probability that some of n
    observations is truncated, from log q; exact down to q = 0."""
    y = math.log(n) + _log_neg_log1p(log_q)  # log(-n log1p(-q))
    small = y < -40.0
    return np.where(small, y, np.log(-np.expm1(-np.exp(np.where(small, -40.0, y)))))


def _first_truncated(log_u, log_q, log_any, n: int) -> np.ndarray:
    """J - 1, the 0-based index of the first truncated observation of a
    sample given that one is, by inverting the law of J given J <= n:
    J - 1 = floor(log1p(-U P(A^c)) / log1p(-q)), from log U (U uniform on
    (0, 1]), log q and log P(A^c) = _log_truncated(log q, n)."""
    ratio = np.exp(_log_neg_log1p(log_u + log_any) - _log_neg_log1p(log_q))
    return np.minimum(np.floor(ratio), n - 1).astype(np.intp)


def _stratum_chunk(start, stop, pt: _Point):
    """Replications start..stop-1 of a stratified psi point's stratum A^c,
    where the truncation binds at least once, drawn from the tilt mixture
    conditioned on A^c on the stream _STRATUM_BASE + start.

    A replication picks component k with probability proportional to
    P_k(A^c), then its first truncated index J from the geometric law of J
    given J <= n.  The points before J are drawn and any truncated one is
    redrawn until none is left (exact rejection); point J comes from the
    family's conditioned draw, the points after J from a plain draw.  Reads:
    the picks, the uniforms of J, the (R, n) sample, the redraws round by
    round, then point J of every row.

    Returns the truncated event's hit count; log sum w and log sum w^2 over
    the rows where only the truncated event holds (h - h0 = 1), then over
    those where only the untruncated one does (h - h0 = -1); and the values
    drawn.
    """
    fam, n = pt.fam, pt.n
    rng = rep_rng(pt.seed, pt.point_index, _STRATUM_BASE + start)
    obs = _draw_stratum(pt, rng, stop - start)
    draws = _Draws(fam, n, fam.suff_stats(obs), obs)
    h = np.asarray(_indicator(replace(pt, log_q=None), draws), dtype=bool)
    h0 = np.asarray(_indicator(pt, draws), dtype=bool)
    lls = [draws.loglik(np.stack((pt.theta_gen,) + pt.components))] if _weighted(pt) else []
    logw = _log_weights(pt, lls, stop - start)
    return (int(h.sum()),) + _hit_sums(logw, h & ~h0) + _hit_sums(logw, h0 & ~h) + (obs.size,)


def _draw_stratum(pt: _Point, rng: np.random.Generator, reps: int) -> np.ndarray:
    """reps full samples from the tilt mixture conditioned on A^c, as
    _stratum_chunk describes, shaped as the family's draw."""
    fam, n, theta0 = pt.fam, pt.n, pt.theta0
    policy = TruncationPolicy(pt.eps, pt.u_n)
    comps = np.stack(pt.components)
    log_any = _log_truncated(pt.log_q, n)
    if len(comps) > 1:
        pick = rng.choice(len(comps), size=reps, p=np.exp(log_any - logsumexp(log_any)))
    else:
        pick = np.zeros(reps, dtype=int)
    thetas = comps[pick]
    first = _first_truncated(np.log1p(-rng.random(reps)), pt.log_q[pick], log_any[pick], n)
    obs = fam.draw(rng, thetas, n)
    before = np.arange(n) < first[:, None]
    rows, cols = np.nonzero(truncated_points(fam, theta0, policy, obs) & before)
    while rows.size:
        obs[rows, cols] = fam.draw(rng, thetas[rows], 1)[:, 0]
        again = truncated_points(fam, theta0, policy, obs[rows, cols])
        rows, cols = rows[again], cols[again]
    obs[np.arange(reps), first] = fam.draw_score_tail(rng, theta0, thetas, policy.threshold)
    return obs


def _pilot_chunk(start, stop, pt: _Point):
    """Event frequency under a single tilt component; used for tilt selection."""
    blocks = _draw_chunk(pt, start, stop, _PILOT_BASE + start)
    return sum(int(np.asarray(_indicator(pt, d), dtype=bool).sum()) for d in blocks)


# ---------------------------------------------------------------------------
# Tilt selection
# ---------------------------------------------------------------------------


def _deviation_tilts(fam, region, theta_gen, u_n, i_inv_sqrt) -> list[np.ndarray]:
    """Parameter shifts to the region's nearest (dominating) points, mapped
    through I^{-1/2}; multiple dominant points become an equal-weight mixture."""
    points = region.nearest_points()
    comps = []
    for x in points:
        shift = u_n * (i_inv_sqrt @ np.atleast_1d(x))
        comps.append(theta_gen + shift)
    uniq: list[np.ndarray] = []
    for c in comps:
        if not any(np.allclose(c, u) for u in uniq):
            uniq.append(c)
    for c in uniq:
        if not fam.theta_domain.contains(c):
            raise TiltDomainError(
                f"tilt parameter {c.tolist()} leaves the domain of {fam.name};"
                " shrink u_n or the region"
            )
    return uniq


def _pilot_tilts(pt: _Point):
    """Seeded pilot over a ladder of standardized shifts, run rung by rung in
    this process up to the first winner; returns the mixture components and
    the chosen shift size for the method tag."""
    fam, theta_gen, u_n, i_inv_sqrt = pt.fam, pt.theta_gen, pt.u_n, pt.fisher.inv_sqrt
    e1 = np.zeros(fam.d)
    e1[0] = 1.0
    freqs = []  # -1 marks a rung outside the domain
    for bi, b_try in enumerate(_PILOT_B_GRID):
        comp = theta_gen + u_n * b_try * (i_inv_sqrt @ e1)
        if not fam.theta_domain.contains(comp):
            freqs.append(-1.0)
            continue
        pilot = replace(pt, components=(comp,), point_index=pt.point_index + 1000 * (bi + 1))
        freqs.append(_pilot_chunk(0, _PILOT_REPS, pilot) / _PILOT_REPS)
        if freqs[-1] >= _PILOT_TARGET_FREQ:
            break
    bi = len(freqs) - 1 if freqs[-1] >= _PILOT_TARGET_FREQ else int(np.argmax(freqs))
    b_star = _PILOT_B_GRID[bi]
    if b_star == 0.0:
        return [theta_gen.copy()], b_star
    comps = []
    for sgn in (1.0, -1.0):
        for ax in range(fam.d):
            e = np.zeros(fam.d)
            e[ax] = sgn
            c = theta_gen + u_n * b_star * (i_inv_sqrt @ e)
            if fam.theta_domain.contains(c):
                comps.append(c)
    if not comps:
        raise TiltDomainError("no pilot tilt stays inside the parameter domain")
    return comps, b_star


# ---------------------------------------------------------------------------
# Exact tail oracles
# ---------------------------------------------------------------------------


def _exact_tail(pt: _Point) -> float:
    """log p in closed form from the family's log_tail hook, after the
    refusals that hold for every family; DomainError where there is none."""
    event = pt.event
    if _event_region(event) is None:
        raise DomainError("no exact tail oracle for discrepancy events")
    if event.estimator in ("bayes", "posterior_mass") and event.prior.kind != "flat":
        raise DomainError(f"exact {type(event).__name__} tails need a flat prior")
    if event.estimator == "bayes" and not bayes_loss_supported(event.loss, pt.fam.d):
        raise DomainError("exact Bayes tails need squared or 1-d absolute loss")

    def hits(stats, obs, counts):
        return np.asarray(_indicator(pt, _Draws(pt.fam, pt.n, stats, obs, counts)), dtype=bool)

    return pt.fam.log_tail(pt, hits)


# ---------------------------------------------------------------------------
# The estimator
# ---------------------------------------------------------------------------


def estimate_prob(
    event,
    fam: ParametricFamily,
    theta0,
    n: int,
    u_n: float,
    b=None,
    method: str = "tilted",
    n_reps: int = 100_000,
    seed: int = 0,
    eps: float = 0.5,
    point_index: int = 0,
    workers: int = 1,
) -> ProbEstimate:
    """Probability of a standardized deviation or coupling-failure event.

    method: "crude" (sample the data-generating law), "tilted"
    (parameter-shift importance sampling toward the event), or "exact"
    (closed-form tail when available).  Weights and second moments are
    accumulated in the log domain, so estimates remain usable down to
    p ~ exp(-450) and 0 hits yield a flagged one-sided bound.
    """
    theta0 = fam.validate_theta(theta0)
    b = np.zeros(fam.d) if b is None else np.atleast_1d(np.asarray(b, dtype=float))
    if b.size != fam.d:
        raise DomainError(f"b has dimension {b.size}, expected {fam.d}")
    if not u_n > 0:
        raise GridError("u_n must be positive")
    if not eps > 0:
        raise GridError("eps must be positive")
    if n < 2:
        raise GridError("n must be at least 2")
    if method != "exact" and not 1 <= n_reps < _STRATUM_BASE - _PSI_BASE:
        raise GridError("n_reps must be at least 1 and below 2^31")
    theta_gen = theta0 + u_n * b
    if not fam.theta_domain.contains(theta_gen):
        raise DomainError(f"theta_gen {theta_gen.tolist()} outside the parameter domain")
    fisher = fisher_information(fam, theta0)
    pt = _Point(fam, event, theta0, theta_gen, n, u_n, b, eps, fisher, seed, point_index)

    if method == "exact":
        log_p = _exact_tail(pt)
        return ProbEstimate(math.exp(log_p), log_p, 0.0, "exact", 0, seed)
    if method not in ("crude", "tilted"):
        raise GridError(f"unknown method {method!r}")

    region = _event_region(event)
    method_tag = method
    if method == "crude":
        _guard_crude(pt)
        components = [theta_gen.copy()]
    elif region is not None:
        components = _deviation_tilts(fam, region, theta_gen, u_n, fisher.inv_sqrt)
    else:
        components, b_star = _pilot_tilts(pt)
        method_tag = f"tilted(pilot-b={b_star:g})"

    pt = replace(pt, components=tuple(components))
    if isinstance(event, PsiEvent):
        pt = replace(pt, log_q=fam.log_score_tail(theta0, np.stack(components), eps / u_n))
    partials = run_chunks(_sim_chunk, n_reps, n, workers, pt)

    hits = sum(p[0] for p in partials)
    lw_hit = float(logsumexp(np.array([p[1] for p in partials])))
    l2w_hit = float(logsumexp(np.array([p[2] for p in partials])))

    # Raw weights are heavy-tailed by design under a rare-event tilt, and a
    # deep tilt legitimately concentrates weight on moderately few hits (the
    # stderr reports that noise honestly).  Warn only when the estimate rests
    # on a handful of effective replications despite many nominal hits.
    if hits >= 8:
        ess_hits = math.exp(2.0 * lw_hit - l2w_hit)
        if ess_hits < 5.0:
            warnings.warn(
                f"importance weights degenerate: {hits} hits carry an"
                f" effective sample of {ess_hits:.1f}",
                DegenerateWeightsWarning,
                stacklevel=2,
            )

    if pt.log_q is not None:
        return _stratified_estimate(pt, (hits, lw_hit, l2w_hit), n_reps, workers, method_tag)
    if hits == 0:
        return _zero_hit_bound(n_reps, method_tag, seed)

    log_n = math.log(n_reps)
    log_p = lw_hit - log_n
    relvar = math.exp(log_n + l2w_hit - 2.0 * lw_hit) - 1.0
    stderr_log = math.sqrt(max(relvar, 0.0) / n_reps)
    return ProbEstimate(math.exp(log_p), log_p, stderr_log, method_tag, n_reps, seed)


def _zero_hit_bound(n_reps: int, method_tag: str, seed: int) -> ProbEstimate:
    log_bound = math.log(_ZERO_HIT_NUMERATOR) - math.log(n_reps)
    return ProbEstimate(0.0, log_bound, math.inf, method_tag, n_reps, seed, upper_bound=True)


def _stratum_reps(n_reps: int, log_truncated: float) -> int:
    """M = ceil(N Q(A^c)), the replications a plain run of N expects to see
    truncated; at least one unless Q(A^c) is 0."""
    if log_truncated == -math.inf:
        return 0
    return min(n_reps, max(1, math.ceil(n_reps * math.exp(log_truncated))))


def _signed_logsumexp(terms) -> tuple:
    """(log |sum|, sign of the sum) of sum_j s_j e^{l_j} for (l_j, s_j) terms."""
    logs, signs = zip(*terms)
    log_abs, sign = logsumexp(np.array(logs), b=np.array(signs, dtype=float), return_sign=True)
    return float(log_abs), float(sign)


def _stratified_estimate(pt: _Point, main: tuple, n_reps: int, workers: int,
                         method_tag: str) -> ProbEstimate:
    """p = E_Q[h0 w] + Q(A^c) E_Q[(h - h0) w | A^c] for a psi event.

    h is the event on the truncated score, h0 on the untruncated one, which
    the statistic gives; they differ only on A^c, where some observation is
    truncated.  main holds the main part's h0 hits and log weight sums over
    N = n_reps replications; the stratum runs M = _stratum_reps replications
    conditioned on A^c (_stratum_chunk).  p_hat = A + Q(A^c)/M (D+ - D-),
    with A the main mean and D+- the stratum's signed weight sums, and
    Var = (m2_0 - A^2)/N + Q(A^c)^2 (m2_D - d^2)/M in population form, all
    in the log domain.  A non-positive p_hat is flagged as a bound: p_hat
    keeps its signed value and log_p is log(3 sd), above p_hat + 3 sd.
    """
    hits, lw_hit, l2w_hit = main
    log_qac = float(logsumexp(_log_truncated(pt.log_q, pt.n))) - math.log(len(pt.components))
    m = _stratum_reps(n_reps, log_qac)
    strata = run_chunks(_stratum_chunk, m, pt.n, workers, pt) if m else []
    hits += sum(p[0] for p in strata)
    if hits == 0:
        return _zero_hit_bound(n_reps, method_tag, pt.seed)
    lw_pos, l2w_pos, lw_neg, l2w_neg = (
        float(logsumexp(np.array([p[j] for p in strata]))) if strata else -math.inf
        for j in (1, 2, 3, 4)
    )
    log_n, log_m = math.log(n_reps), math.log(max(m, 1))
    log_a = lw_hit - log_n
    scale = log_qac - log_m
    log_p, sign = _signed_logsumexp(
        [(log_a, 1), (scale + lw_pos, 1), (scale + lw_neg, -1)]
    )
    log_d, _ = _signed_logsumexp([(lw_pos, 1), (lw_neg, -1)])
    log_var, var_sign = _signed_logsumexp([
        (l2w_hit - 2.0 * log_n, 1),
        (2.0 * log_a - log_n, -1),
        (2.0 * log_qac + float(np.logaddexp(l2w_pos, l2w_neg)) - 2.0 * log_m, 1),
        (2.0 * (log_qac + log_d) - 3.0 * log_m, -1),
    ])
    log_sd = 0.5 * log_var if var_sign > 0 else -math.inf
    if sign > 0:
        return ProbEstimate(math.exp(log_p), log_p, math.exp(log_sd - log_p), method_tag,
                            n_reps, pt.seed)
    return ProbEstimate(sign * math.exp(log_p), math.log(_ZERO_HIT_NUMERATOR) + log_sd,
                        math.inf, method_tag, n_reps, pt.seed, upper_bound=True)


def _guard_crude(pt: _Point):
    """Crude sampling cannot see probabilities far below 1/n_reps; refuse
    points whose exact tail, else region rate, predicts p below 1e-12."""
    try:
        log_pred = _exact_tail(pt)
    except DomainError:
        region = _event_region(pt.event)
        if region is None:
            return
        log_pred = -0.5 * pt.n * pt.u_n**2 * rate_functional(region)
    if log_pred < math.log(1e-12):
        raise BudgetError(
            f"predicted probability exp({log_pred:.1f}) below 1e-12:"
            " crude sampling cannot resolve it; use method='tilted'"
        )


# ---------------------------------------------------------------------------
# Curves and sweeps
# ---------------------------------------------------------------------------


def _reps_for(schedule_ns, budget: Budget) -> int:
    total = sum(schedule_ns)
    capped = budget.max_total_draws // max(total, 1)
    return max(budget.min_reps, min(budget.n_reps, int(capped)))


def _rate_points(event, fam, theta0, ns, u_of, b, budget, base, **kw) -> tuple:
    """One RatePoint per n of ns, at deviation u_of(n) and point index
    base + i; kw (method, seed, eps, workers) passes to estimate_prob."""
    reps = _reps_for(ns, budget)
    points = []
    for i, n in enumerate(ns):
        u = u_of(n)
        est = estimate_prob(event, fam, theta0, n, u, b=b, n_reps=reps, point_index=base + i, **kw)
        points.append(RatePoint(n=n, u_n=u, estimate=est))
    return tuple(points)


def ldp_curve(
    event,
    fam: ParametricFamily,
    theta0,
    schedule: DeviationSchedule,
    budget: Budget = Budget(),
    method: str = "tilted",
    seed: int = 0,
    workers: int = 1,
    eps: float = 0.5,
    label: str = "",
) -> RateCurve:
    """Normalized rate -log p / (n u_n^2 / 2) along a moderate-deviation
    schedule, against the region's rate inf |x|^2."""
    if not schedule.alpha > 0:
        raise GridError("moderate-deviation curves need alpha in (0, 1/2)")
    region = _event_region(event)
    target = rate_functional(region) if region is not None else math.nan
    points = _rate_points(
        event, fam, theta0, schedule.n_values, schedule.u_of, schedule.b, budget, 0,
        method=method, seed=seed, eps=eps, workers=workers,
    )
    return RateCurve(points=points, target=target, label=label or type(event).__name__)


def equivalence_tail(
    fam: ParametricFamily,
    theta0,
    schedule: DeviationSchedule,
    delta: float,
    budget: Budget = Budget(),
    method: str = "tilted",
    seed: int = 0,
    workers: int = 1,
    eps: float = 0.5,
) -> dict:
    """Decay of the three estimator-coupling failure probabilities.

    These are the events whose probabilities must vanish faster than any
    deviation event's; the curves have no fixed rate target.
    """
    curves = {}
    for k, kind in enumerate(("mle_vs_psi", "lr_vs_wald", "lr_vs_psi2")):
        points = _rate_points(
            DiscrepancyEvent(kind=kind, delta=delta), fam, theta0, schedule.n_values,
            schedule.u_of, schedule.b, budget, 10_000 * k,
            method=method, seed=seed, eps=eps, workers=workers,
        )
        curves[kind] = RateCurve(points=points, target=math.nan, label=kind)
    return curves


def bahadur_sweep(
    event,
    fam: ParametricFamily,
    theta0,
    u_values,
    n_large: int,
    budget: Budget = Budget(),
    method: str = "tilted",
    seed: int = 0,
    workers: int = 1,
    eps: float = 0.5,
) -> list[RateCurve]:
    """Fixed-u rate curves in n, one per u: the per-u normalized rates
    approach the region's rate from above as n grows."""
    if n_large < 16:
        raise GridError("n_large must be at least 16")
    region = _event_region(event)
    target = rate_functional(region) if region is not None else math.nan
    curves = []
    for j, u in enumerate(u_values):
        if not u > 0:
            raise GridError("u values must be positive")
        n_floor = max(int(math.ceil(2.0 / u**2)), n_large // 64)
        ns = sorted({n_floor, n_large // 16, n_large // 4, n_large})
        ns = [n for n in ns if n * u**2 >= 2.0 and n >= 2]
        if not ns:
            raise GridError(f"no usable n for u={u}: n u^2 stays below 2")
        points = _rate_points(
            event, fam, theta0, ns, lambda n, u=u: u, None, budget, 100_000 * j,
            method=method, seed=seed, eps=eps, workers=workers,
        )
        curves.append(RateCurve(points=points, target=target, label=f"u={u:g}"))
    return curves
