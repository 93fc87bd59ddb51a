"""Maximum likelihood and gridded-posterior Bayes estimators.

The MLE path is a deterministic pipeline: coarse grid scan (lexicographic
tie-break), golden-section bracket refinement in one dimension or bounded
quasi-Newton in several, then an analytic Newton polish wherever the family
exposes a Hessian.  The polish is what pushes the estimate from the
float-noise floor of the log-likelihood (about 1e-7 in the argument) down
to machine precision, which the statistic identities need.

Bayes estimators act on an explicit posterior grid: raw log-weights are
kept unnormalized, the normalizer is a logsumexp, and the risk minimizer
is searched on the same grid then refined once on a 10x finer local grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import optimize
from scipy.special import logsumexp

from .errors import (
    BoundaryWarning,
    DimensionError,
    DomainError,
    GridError,
    ResolutionWarning,
    UnderflowError_,
)
from .families import Box, ParametricFamily, SampleBatch, fisher_information, loglik_grid
from .lan import TruncationPolicy, psi_n
from .regions import RegionSpec

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# Loss and prior specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LossSpec:
    """l(u) = l1(|u|) with |.| one of euclidean / max / weighted-diag norms.

    kinds: "power" (l1(r) = r**p), "linear" (l1(r) = r), "table"
    (monotone interpolation through (xs, ys) with ys[0] = 0).
    """

    kind: str = "power"
    p: float = 2.0
    norm: str = "euclidean"
    weights: Optional[np.ndarray] = None
    xs: Optional[np.ndarray] = None
    ys: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("power", "linear", "table"):
            raise GridError(f"unknown loss kind {self.kind!r}")
        if self.norm not in ("euclidean", "max", "weighted"):
            raise GridError(f"unknown norm {self.norm!r}")
        if self.kind == "power" and not self.p > 0:
            raise GridError("power loss needs p > 0")
        if self.norm == "weighted":
            if self.weights is None or np.any(np.asarray(self.weights) <= 0):
                raise GridError("weighted norm needs positive weights")
        if self.kind == "table":
            if self.xs is None or self.ys is None:
                raise GridError("table loss needs xs and ys")
            xs, ys = np.asarray(self.xs, dtype=float), np.asarray(self.ys, dtype=float)
            if xs.shape != ys.shape or xs.size < 2:
                raise GridError("table loss needs matching xs, ys of length >= 2")
            if xs[0] != 0.0 or ys[0] != 0.0:
                raise GridError("table loss must start at (0, 0)")
            if np.any(np.diff(xs) <= 0):
                raise GridError("table xs must be strictly increasing")

    @classmethod
    def power(cls, p: float, norm: str = "euclidean", weights=None) -> "LossSpec":
        w = None if weights is None else np.asarray(weights, dtype=float)
        return cls(kind="power", p=float(p), norm=norm, weights=w)

    @classmethod
    def linear(cls, norm: str = "euclidean", weights=None) -> "LossSpec":
        w = None if weights is None else np.asarray(weights, dtype=float)
        return cls(kind="linear", norm=norm, weights=w)

    @classmethod
    def table(cls, xs, ys, norm: str = "euclidean", weights=None) -> "LossSpec":
        w = None if weights is None else np.asarray(weights, dtype=float)
        return cls(
            kind="table",
            norm=norm,
            weights=w,
            xs=np.asarray(xs, dtype=float),
            ys=np.asarray(ys, dtype=float),
        )

    def l1(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.kind == "power":
            return r**self.p
        if self.kind == "linear":
            return r.copy()
        # Linear extrapolation keeps the table loss increasing past the last knot.
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        out = np.interp(r, xs, ys)
        slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        out = np.where(r > xs[-1], ys[-1] + slope * (r - xs[-1]), out)
        return out

    def norm_of(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.ndim == 1:
            u = u[:, None]
        if self.norm == "euclidean":
            return np.sqrt(np.sum(u * u, axis=-1))
        if self.norm == "max":
            return np.max(np.abs(u), axis=-1)
        w = np.asarray(self.weights, dtype=float)
        return np.sqrt(np.sum(w * u * u, axis=-1))

    def l(self, u) -> np.ndarray:
        return self.l1(self.norm_of(u))


@dataclass(frozen=True)
class PriorSpec:
    """Flat or box-truncated Gaussian prior; densities only ever enter grids."""

    kind: str = "flat"
    mean: Optional[np.ndarray] = None
    sd: float = 1.0

    def __post_init__(self):
        if self.kind not in ("flat", "gaussian"):
            raise GridError(f"unknown prior kind {self.kind!r}")
        if self.kind == "gaussian":
            if self.mean is None:
                raise GridError("gaussian prior needs a mean")
            if not self.sd > 0:
                raise GridError("gaussian prior needs sd > 0")

    @classmethod
    def flat(cls) -> "PriorSpec":
        return cls(kind="flat")

    @classmethod
    def gaussian(cls, mean, sd: float) -> "PriorSpec":
        return cls(kind="gaussian", mean=np.atleast_1d(np.asarray(mean, dtype=float)), sd=float(sd))

    def log_density(self, nodes: np.ndarray) -> np.ndarray:
        """Unnormalized log prior on (G, d) nodes; truncation constant dropped."""
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim == 1:
            nodes = nodes[:, None]
        if self.kind == "flat":
            return np.zeros(nodes.shape[0])
        z = (nodes - self.mean[None, :]) / self.sd
        return -0.5 * np.sum(z * z, axis=-1)


# ---------------------------------------------------------------------------
# Maximum likelihood
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchSettings:
    grid_step: Optional[float] = None  # default 0.01 * box width per axis
    tol: float = 1e-10
    max_newton: int = 8
    n_seeds: int = 16


@dataclass(frozen=True)
class MleResult:
    theta_hat: np.ndarray
    loglik: float
    n_restarts: int
    converged: bool
    tie_broken: bool


def _golden_max(f, a: float, b: float, tol: float) -> float:
    """Golden-section maximization; ties resolve toward the smaller argument."""
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _newton_polish(
    fam: ParametricFamily,
    obs: np.ndarray,
    theta: np.ndarray,
    box: Box,
    max_steps: int,
) -> tuple[np.ndarray, bool]:
    """Drive the score sum to zero; the steps are monitored on |score|, not
    on the log-likelihood, whose float noise exceeds the improvements here."""
    margin = 1e-12 * float(np.max(box.width()))
    cur = theta.astype(float).copy()
    converged = False
    for _ in range(max_steps):
        h = fam.hess_log_density(obs, cur)
        if h is None:
            break
        g = np.sum(fam.grad_log_density(obs, cur), axis=0)
        if fam.d == 1:
            hs = float(np.sum(h))
            if not np.isfinite(hs) or hs >= 0.0:
                break
            delta = np.array([-g[0] / hs])
        else:
            hs = np.sum(np.asarray(h), axis=0)
            try:
                delta = -np.linalg.solve(hs, g)
            except np.linalg.LinAlgError:
                break
        scale = max(1.0, float(np.linalg.norm(cur)))
        if float(np.linalg.norm(delta)) < 1e-14 * scale:
            converged = True
            break
        gn0 = float(np.linalg.norm(g))
        accepted = False
        for t in (1.0, 0.5, 0.25, 0.125):
            cand = box.clip_interior(cur + t * delta, margin)
            gc = np.sum(fam.grad_log_density(obs, cand), axis=0)
            if float(np.linalg.norm(gc)) <= gn0:
                cur = cand
                accepted = True
                break
        if not accepted:
            break
    return cur, converged


def mle(sample: SampleBatch, fam: ParametricFamily, search: Optional[SearchSettings] = None) -> MleResult:
    """Deterministic maximum likelihood over the family's open parameter box."""
    search = search or SearchSettings()
    obs = np.asarray(sample.observations, dtype=float)
    box = fam.theta_domain
    if fam.d == 1:
        result = _mle_1d(fam, obs, box, search)
    else:
        result = _mle_nd(fam, obs, box, search)
    width = float(np.max(box.width()))
    gap = min(
        float(np.min(result.theta_hat - box.lo)), float(np.min(box.hi - result.theta_hat))
    )
    if gap < 1e-6 * width:
        warnings.warn(
            f"estimate {result.theta_hat.tolist()} within {gap:.3g} of the domain boundary",
            BoundaryWarning,
            stacklevel=2,
        )
    return result


def _mle_1d(fam, obs, box, search) -> MleResult:
    lo, hi = float(box.lo[0]), float(box.hi[0])
    width = hi - lo
    step = search.grid_step if search.grid_step is not None else 0.01 * width
    margin = 1e-9 * width
    m = max(2, int(math.ceil(width / step)) + 1)
    grid = np.linspace(lo + margin, hi - margin, m)
    ll = loglik_grid(fam, obs[None], grid[:, None])[0]
    best = float(np.max(ll))
    near = np.flatnonzero(ll >= best - 1e-12 * max(1.0, abs(best)))
    tie_broken = near.size > 1
    i = int(near[0])  # grid ascending, so first index is the smallest theta

    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, m - 1)]

    def f(t):
        return fam.loglik(obs, np.array([t]))

    th = _golden_max(f, float(a), float(b), search.tol) if b > a else float(grid[i])
    theta = np.array([th])
    theta, converged = _newton_polish(fam, obs, theta, box, search.max_newton)
    return MleResult(
        theta_hat=theta,
        loglik=fam.loglik(obs, theta),
        n_restarts=1,
        converged=converged or fam.hess_log_density(obs, theta) is None,
        tie_broken=tie_broken,
    )


def _mle_nd(fam, obs, box, search) -> MleResult:
    margin = 1e-9 * float(np.max(box.width()))
    axes = [np.linspace(box.lo[i] + margin, box.hi[i] - margin, 21) for i in range(fam.d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=-1)
    ll = loglik_grid(fam, obs[None], nodes)[0]
    best = float(np.max(ll))
    near = np.flatnonzero(ll >= best - 1e-12 * max(1.0, abs(best)))
    tie_broken = near.size > 1
    starts = [nodes[int(near[0])]]

    # deterministic interior lattice of extra starts
    k = max(2, int(round(math.sqrt(search.n_seeds))))
    seed_axes = [np.linspace(box.lo[i] + margin, box.hi[i] - margin, k + 2)[1:-1] for i in range(fam.d)]
    seed_mesh = np.meshgrid(*seed_axes, indexing="ij")
    starts.extend(list(np.stack([m.ravel() for m in seed_mesh], axis=-1)))

    def neg(t):
        return -fam.loglik(obs, t)

    def neg_grad(t):
        return -np.sum(fam.grad_log_density(obs, t), axis=0)

    bounds = [(box.lo[i] + margin, box.hi[i] - margin) for i in range(fam.d)]
    cand, cand_ll = None, -math.inf
    for s in starts:
        res = optimize.minimize(
            neg, s, jac=neg_grad, method="L-BFGS-B", bounds=bounds,
            options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 200},
        )
        v = -float(res.fun)
        t = np.asarray(res.x, dtype=float)
        if cand is None:
            cand, cand_ll = t, v
            continue
        # ties resolve toward the lexicographically smallest parameter; the
        # tolerance must stay finite when every start so far diverged
        tol = 1e-12 * max(1.0, abs(cand_ll)) if math.isfinite(cand_ll) else 0.0
        if v > cand_ll + tol or (abs(v - cand_ll) <= tol and tuple(t) < tuple(cand)):
            cand, cand_ll = t, v
    theta, converged = _newton_polish(fam, obs, cand, box, search.max_newton)
    return MleResult(
        theta_hat=theta,
        loglik=fam.loglik(obs, theta),
        n_restarts=len(starts),
        converged=converged,
        tie_broken=tie_broken,
    )


# ---------------------------------------------------------------------------
# Posterior grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PosteriorGrid:
    """Posterior on a product grid; log-weights stay raw until normalized."""

    nodes: np.ndarray  # (G, d), row-major over axes
    log_weights: np.ndarray  # (G,), loglik + logprior, unnormalized
    normalizer: float  # logsumexp of log_weights
    axes: tuple  # per-axis node arrays
    box: Box
    resolution: int
    prior: PriorSpec

    @property
    def d(self) -> int:
        return self.nodes.shape[1]

    def probs(self) -> np.ndarray:
        return np.exp(self.log_weights - self.normalizer)

    def mean(self) -> np.ndarray:
        p = self.probs()
        return p @ self.nodes

    def dump_text(self) -> str:
        """One line per node: the node coordinates then the raw log-weight."""
        lines = []
        for node, lw in zip(self.nodes, self.log_weights):
            coords = " ".join(f"{c:.17g}" for c in node)
            lines.append(f"{coords} {lw:.17g}")
        return "\n".join(lines) + "\n"


def posterior_grid(
    sample: SampleBatch,
    fam: ParametricFamily,
    prior: PriorSpec,
    box: Box,
    resolution: int,
) -> PosteriorGrid:
    if fam.d > 2:
        raise DimensionError("posterior grids support at most two dimensions")
    if resolution < 64:
        raise GridError("grid resolution must be at least 64 per axis")
    if box.d != fam.d:
        raise DimensionError(f"box dimension {box.d} != family dimension {fam.d}")
    lo = np.maximum(box.lo, fam.theta_domain.lo + 1e-12 * fam.theta_domain.width())
    hi = np.minimum(box.hi, fam.theta_domain.hi - 1e-12 * fam.theta_domain.width())
    if np.any(lo >= hi):
        raise DomainError("posterior box does not intersect the parameter domain")

    axes = tuple(np.linspace(lo[i], hi[i], resolution) for i in range(fam.d))
    if fam.d == 1:
        nodes = axes[0][:, None]
    else:
        mesh = np.meshgrid(*axes, indexing="ij")
        nodes = np.stack([m.ravel() for m in mesh], axis=-1)

    obs = np.asarray(sample.observations, dtype=float)
    ll = loglik_grid(fam, obs[None], nodes)[0]
    lw = ll + prior.log_density(nodes)
    if not np.any(np.isfinite(lw)):
        raise UnderflowError_("all posterior grid weights underflow to -inf")
    norm = float(logsumexp(lw[np.isfinite(lw)]))
    lw = np.where(np.isfinite(lw), lw, -np.inf)
    return PosteriorGrid(
        nodes=nodes,
        log_weights=lw,
        normalizer=norm,
        axes=axes,
        box=Box(lo, hi),
        resolution=resolution,
        prior=prior,
    )


def default_posterior_box(fam: ParametricFamily, pilot, n: int, u_n: float) -> Box:
    """Sub-box centered at a pilot estimate, half-width max(10/sqrt(n), 5 u_n)."""
    pilot = np.atleast_1d(np.asarray(pilot, dtype=float))
    h = max(10.0 / math.sqrt(n), 5.0 * u_n)
    dom = fam.theta_domain
    eps = 1e-9 * dom.width()
    lo = np.maximum(pilot - h, dom.lo + eps)
    hi = np.minimum(pilot + h, dom.hi - eps)
    for i in range(fam.d):
        if lo[i] >= hi[i]:  # pilot pinned at the boundary; keep a sliver inside
            mid = min(max(pilot[i], dom.lo[i] + 2 * eps[i]), dom.hi[i] - 2 * eps[i])
            lo[i], hi[i] = mid - eps[i], mid + eps[i]
    return Box(lo, hi)


# ---------------------------------------------------------------------------
# Bayes estimate: posterior risk minimization on the grid
# ---------------------------------------------------------------------------


def _risk_quadratic(post: PosteriorGrid, loss: LossSpec, ts: np.ndarray) -> np.ndarray:
    """O(G + T): separable expansion of sum_j p_j |x_j - t|_W^2."""
    p = post.probs()
    w = (
        np.ones(post.d)
        if loss.norm == "euclidean"
        else np.asarray(loss.weights, dtype=float)
    )
    m1 = p @ post.nodes  # (d,)
    m2 = p @ (post.nodes**2)  # (d,)
    return (w * m2).sum() - 2.0 * ts @ (w * m1) + ts**2 @ w


def _risk_absolute_1d(post: PosteriorGrid, loss: LossSpec, ts: np.ndarray) -> np.ndarray:
    """O(G + T log G) prefix-sum evaluation of sum_j p_j |x_j - t| in one dim."""
    x = post.nodes[:, 0]
    p = post.probs()
    scale = 1.0 if loss.norm != "weighted" else math.sqrt(float(loss.weights[0]))
    cp = np.concatenate([[0.0], np.cumsum(p)])
    cs = np.concatenate([[0.0], np.cumsum(p * x)])
    t = ts[:, 0]
    k = np.searchsorted(x, t, side="right")
    below_p, below_s = cp[k], cs[k]
    total_p, total_s = cp[-1], cs[-1]
    risk = t * (2.0 * below_p - total_p) - (2.0 * below_s - total_s)
    return scale * risk


def _risk_generic(post: PosteriorGrid, loss: LossSpec, ts: np.ndarray) -> np.ndarray:
    p = post.probs()
    out = np.empty(ts.shape[0])
    chunk = max(1, int(4e6 // max(post.nodes.shape[0], 1)))
    for s in range(0, ts.shape[0], chunk):
        block = ts[s : s + chunk]  # (c, d)
        diff = post.nodes[None, :, :] - block[:, None, :]
        out[s : s + chunk] = loss.l(diff.reshape(-1, post.d)).reshape(
            block.shape[0], -1
        ) @ p
    return out


def _risk(post: PosteriorGrid, loss: LossSpec, ts: np.ndarray) -> np.ndarray:
    if loss.kind == "power" and loss.p == 2.0 and loss.norm in ("euclidean", "weighted"):
        return _risk_quadratic(post, loss, ts)
    if (
        post.d == 1
        and ((loss.kind == "power" and loss.p == 1.0) or loss.kind == "linear")
    ):
        return _risk_absolute_1d(post, loss, ts)
    return _risk_generic(post, loss, ts)


def bayes_estimate(post: PosteriorGrid, loss: LossSpec) -> np.ndarray:
    """argmin_t of the posterior expected loss, t on the posterior grid,
    refined once around the coarse argmin with a 10x finer local grid."""
    risks = _risk(post, loss, post.nodes)
    i = int(np.argmin(risks))  # first minimum = lexicographically smallest node
    center = post.nodes[i]

    steps = np.array(
        [ax[1] - ax[0] if ax.size > 1 else 0.0 for ax in post.axes]
    )
    offsets = np.linspace(-1.0, 1.0, 21)
    fine_axes = [
        np.clip(center[k] + offsets * steps[k], post.box.lo[k], post.box.hi[k])
        for k in range(post.d)
    ]
    if post.d == 1:
        fine = np.unique(fine_axes[0])[:, None]
    else:
        mesh = np.meshgrid(*[np.unique(a) for a in fine_axes], indexing="ij")
        fine = np.stack([m.ravel() for m in mesh], axis=-1)
    fine_risks = _risk(post, loss, fine)
    j = int(np.argmin(fine_risks))
    return fine[j].copy()


def posterior_mass(post: PosteriorGrid, region: RegionSpec, center) -> float:
    """Posterior probability that (theta - center) lies in the region.

    Warns when cells straddling the region boundary carry more than 5% of
    the mass, since the grid then cannot resolve the event sharply.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    shifted = post.nodes - center[None, :]
    inside = region.contains(shifted)
    p = post.probs()
    mass = float(p[inside].sum())

    steps = np.array([ax[1] - ax[0] if ax.size > 1 else 0.0 for ax in post.axes])
    flip = np.zeros(post.nodes.shape[0], dtype=bool)
    for k in range(post.d):
        for sgn in (-1.0, 1.0):
            probe = shifted.copy()
            probe[:, k] += sgn * 0.5 * steps[k]
            flip |= region.contains(probe) != inside
    frac = float(p[flip].sum())
    if frac > 0.05:
        warnings.warn(
            f"{frac:.1%} of posterior mass sits in boundary-straddling cells",
            ResolutionWarning,
            stacklevel=2,
        )
    return mass


# ---------------------------------------------------------------------------
# Classical test statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatTriple:
    wald: float
    rao: float
    lr: float
    theta_hat: np.ndarray
    psi: np.ndarray


def test_statistics(
    sample: SampleBatch,
    fam: ParametricFamily,
    theta0,
    policy: Optional[TruncationPolicy] = None,
) -> StatTriple:
    """Wald, score (4 |psi|^2), and likelihood-ratio statistics at theta0."""
    theta0 = fam.validate_theta(theta0)
    policy = policy or TruncationPolicy.inactive()
    res = mle(sample, fam)
    fisher = fisher_information(fam, theta0)
    diff = res.theta_hat - theta0
    wald = float(sample.n * diff @ fisher.matrix @ diff)
    psi = psi_n(fam, sample, theta0, policy, fisher=fisher)
    rao = float(4.0 * psi @ psi)
    lr = 2.0 * (res.loglik - fam.loglik(np.asarray(sample.observations, dtype=float), theta0))
    return StatTriple(wald=wald, rao=rao, lr=lr, theta_hat=res.theta_hat, psi=psi)
