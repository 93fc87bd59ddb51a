"""Maximum likelihood and gridded-posterior Bayes estimators.

Every estimator here is the one-sample case of a batch kernel that the Monte
Carlo also runs.  The MLE is the family's closed form (`mle_batch`, through
the sufficient statistic where there is one), unclipped, with a warning when
it sits on the boundary of the parameter box.

Bayes estimators act on an explicit posterior grid: nodes are per-axis
np.linspace product grids (`grid_nodes`), raw log-weights are kept
unnormalized, and the normalizer is a logsumexp.  `bayes_estimates` reads
the estimate off the normalized weights in closed form: the posterior mean
for squared loss, the cell-interpolated posterior median for absolute loss
in one dimension.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
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

# ---------------------------------------------------------------------------
# Loss and prior specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LossSpec:
    """l(u) = l1(|u|) with |.| the euclidean or the max norm.

    kinds: "power" (l1(r) = r**p), "linear" (l1(r) = r), "table"
    (monotone interpolation through (xs, ys) with ys[0] = 0).
    """

    kind: str = "power"
    p: float = 2.0
    norm: str = "euclidean"
    xs: Optional[np.ndarray] = None
    ys: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "p", float(self.p))
        if self.kind not in ("power", "linear", "table"):
            raise GridError(f"unknown loss kind {self.kind!r}")
        if self.norm not in ("euclidean", "max"):
            raise GridError(f"unknown norm {self.norm!r}")
        if self.kind == "power" and not self.p > 0:
            raise GridError("power loss needs p > 0")
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
            object.__setattr__(self, "xs", xs)
            object.__setattr__(self, "ys", ys)

    @classmethod
    def power(cls, p: float, norm: str = "euclidean") -> "LossSpec":
        return cls(kind="power", p=p, norm=norm)

    @classmethod
    def linear(cls, norm: str = "euclidean") -> "LossSpec":
        return cls(kind="linear", norm=norm)

    @classmethod
    def table(cls, xs, ys, norm: str = "euclidean") -> "LossSpec":
        return cls(kind="table", norm=norm, xs=xs, ys=ys)

    def l1(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.kind == "power":
            return r**self.p
        if self.kind == "linear":
            return r.copy()
        # Linear extrapolation keeps the table loss increasing past the last knot.
        xs, ys = self.xs, self.ys
        out = np.interp(r, xs, ys)
        slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        out = np.where(r > xs[-1], ys[-1] + slope * (r - xs[-1]), out)
        return out



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
            object.__setattr__(self, "mean", np.atleast_1d(np.asarray(self.mean, dtype=float)))
            object.__setattr__(self, "sd", float(self.sd))
            if not self.sd > 0:
                raise GridError("gaussian prior needs sd > 0")

    @classmethod
    def flat(cls) -> "PriorSpec":
        return cls(kind="flat")

    @classmethod
    def gaussian(cls, mean, sd: float) -> "PriorSpec":
        return cls(kind="gaussian", mean=mean, sd=sd)

    def log_density(self, nodes: np.ndarray) -> np.ndarray:
        """Unnormalized log prior on (..., d) nodes; truncation constant dropped."""
        nodes = np.asarray(nodes, dtype=float)
        if self.kind == "flat":
            return np.zeros(nodes.shape[:-1])
        z = (nodes - self.mean) / self.sd
        return -0.5 * np.sum(z * z, axis=-1)


# ---------------------------------------------------------------------------
# Maximum likelihood
# ---------------------------------------------------------------------------


def mle(sample: SampleBatch, fam: ParametricFamily) -> np.ndarray:
    """The family's closed-form maximum likelihood estimate, shaped (d,).

    The estimate is not clipped to the open parameter box: a boundary sample
    (all ones for the Bernoulli) keeps its boundary estimate, with a warning.
    A sample outside the family's support raises DomainError; that includes
    NaN, which a median by selection would order like a number.
    """
    obs = np.asarray(sample.observations, dtype=float)
    if not fam.support.check(obs):
        raise DomainError(f"sample outside the support of {fam.name}")
    est = fam.mle_batch(obs[None])
    if est is None:
        raise DomainError(f"family {fam.name!r} has no closed-form estimator")
    theta = est[0]
    box = fam.theta_domain
    gap = min(float(np.min(theta - box.lo)), float(np.min(box.hi - theta)))
    if gap < 1e-6 * float(np.max(box.width())):
        warnings.warn(
            f"estimate {theta.tolist()} within {gap:.3g} of the domain boundary",
            BoundaryWarning,
            stacklevel=2,
        )
    return theta


# ---------------------------------------------------------------------------
# Posterior grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PosteriorGrid:
    """Posterior on a product grid; log-weights stay raw until normalized."""

    nodes: np.ndarray  # (G, d), row-major over axes
    log_weights: np.ndarray  # (G,), loglik + logprior, unnormalized
    normalizer: float  # logsumexp of log_weights
    box: Box
    resolution: int
    prior: PriorSpec

    @property
    def d(self) -> int:
        return self.nodes.shape[1]

    def probs(self) -> np.ndarray:
        return np.exp(self.log_weights - self.normalizer)

    def dump_text(self) -> str:
        """One line per node: the node coordinates then the raw log-weight."""
        lines = []
        for node, lw in zip(self.nodes, self.log_weights):
            coords = " ".join(f"{c:.17g}" for c in node)
            lines.append(f"{coords} {lw:.17g}")
        return "\n".join(lines) + "\n"


def grid_nodes(box: Box, resolution: int) -> np.ndarray:
    """Product-grid nodes (..., G, d), G = resolution**d, row-major over the
    axes, one grid per leading row of the box bounds; d is at most 2.

    Each axis holds np.linspace(lo, hi, resolution) bit for bit, computed in
    place with the same arithmetic: np.linspace puts the node axis first, and
    the transposing copy to rows costs several times the nodes themselves.
    """
    lo, hi = box.lo[..., None, :], box.hi[..., None, :]
    axes = np.arange(resolution)[:, None] * ((hi - lo) / (resolution - 1))
    axes += lo
    axes[..., -1:, :] = hi
    if box.d == 1:
        return axes
    lead = box.lo.shape[:-1]
    nodes = np.empty(lead + (resolution, resolution, 2))
    nodes[..., 0] = axes[..., :, None, 0]
    nodes[..., 1] = axes[..., None, :, 1]
    return nodes.reshape(lead + (resolution * resolution, 2))


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

    box = Box(lo, hi)
    nodes = grid_nodes(box, resolution)
    obs = np.asarray(sample.observations, dtype=float)
    lw = loglik_grid(fam, obs[None], nodes)[0] + prior.log_density(nodes)
    if not np.any(np.isfinite(lw)):
        raise UnderflowError_("all posterior grid weights underflow to -inf")
    norm = float(logsumexp(lw[np.isfinite(lw)]))
    lw = np.where(np.isfinite(lw), lw, -np.inf)
    return PosteriorGrid(
        nodes=nodes, log_weights=lw, normalizer=norm, box=box, resolution=resolution, prior=prior
    )


def default_posterior_box(fam: ParametricFamily, pilot, n: int, u_n: float) -> Box:
    """Sub-box centered at a pilot estimate, half-width max(10/sqrt(n), 5 u_n),
    kept at least 1e-9 of the domain width inside the parameter domain.

    pilot is (d,) or one estimate per row (R, d); the box bounds take the
    same shape.
    """
    pilot = np.asarray(pilot, dtype=float)
    h = max(10.0 / math.sqrt(n), 5.0 * u_n)
    dom = fam.theta_domain
    eps = 1e-9 * dom.width()
    # a pilot pinned at (or past) the boundary still gets a sliver inside
    lo = np.clip(pilot - h, dom.lo + eps, dom.hi - 2.0 * eps)
    hi = np.clip(pilot + h, lo + eps, dom.hi - eps)
    return Box(lo, hi)


# ---------------------------------------------------------------------------
# Bayes estimates: closed-form posterior risk minimizers on the grid
# ---------------------------------------------------------------------------


def _is_absolute(loss: LossSpec) -> bool:
    return loss.kind == "linear" or (loss.kind == "power" and loss.p == 1.0)


def bayes_loss_supported(loss: LossSpec, d: int) -> bool:
    """Whether the Bayes estimate under this loss has a closed form on a grid
    posterior: squared loss (the posterior mean; in d > 1 only for the
    euclidean norm, which separates over the axes), or
    absolute loss in one dimension (the posterior median)."""
    if loss.kind == "power" and loss.p == 2.0:
        return d == 1 or loss.norm != "max"
    return d == 1 and _is_absolute(loss)


def bayes_estimates(nodes: np.ndarray, w: np.ndarray, loss: LossSpec) -> np.ndarray:
    """(R, d) Bayes estimates of R grid posteriors: nodes (R, G, d) from
    grid_nodes, normalized weights (R, G).

    Squared loss gives the posterior mean.  Absolute loss gives the median of
    the posterior that spreads each node's weight evenly over its cell
    [x_j - h/2, x_j + h/2]: the cumulative weight through node j is the CDF at
    the cell's right edge, and the median is interpolated between edges.
    """
    if not bayes_loss_supported(loss, nodes.shape[-1]):
        raise DomainError(
            "Bayes estimates need squared loss (euclidean norm when d > 1)"
            " or absolute loss in one dimension"
        )
    if not _is_absolute(loss):
        return np.einsum("rg,rgk->rk", w, nodes)
    x = nodes[..., 0]
    h = x[:, 1] - x[:, 0]
    cum = np.cumsum(w, axis=1)
    j = np.argmax(cum >= 0.5, axis=1)
    rows = np.arange(x.shape[0])
    c1 = cum[rows, j]
    c0 = np.where(j > 0, cum[rows, j - 1], 0.0)
    t = (0.5 - c0) / (c1 - c0)  # c0 < 0.5 <= c1: j is the first cell reaching 0.5
    return (x[rows, j] + (t - 0.5) * h)[:, None]


def bayes_estimate(post: PosteriorGrid, loss: LossSpec) -> np.ndarray:
    """The (d,) Bayes estimate of one grid posterior: bayes_estimates at R = 1."""
    return bayes_estimates(post.nodes[None], post.probs()[None], loss)[0]


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

    steps = post.box.width() / (post.resolution - 1)
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
    theta_hat = mle(sample, fam)
    fisher = fisher_information(fam, theta0)
    diff = theta_hat - theta0
    wald = float(sample.n * diff @ fisher.matrix @ diff)
    psi = psi_n(fam, sample, theta0, policy, fisher=fisher)
    rao = float(4.0 * psi @ psi)
    obs = np.asarray(sample.observations, dtype=float)
    ll = loglik_grid(fam, obs[None], np.stack((theta_hat, theta0)))[0]
    lr = 2.0 * float(ll[0] - ll[1])
    return StatTriple(wald=wald, rao=rao, lr=lr, theta_hat=theta_hat, psi=psi)
