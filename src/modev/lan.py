"""Truncated-score local expansion of the log-likelihood ratio.

For a sample X_1..X_n, a center theta0, and a displacement u, the
log-likelihood-ratio sum

    sum_xi(u) = sum_i log[ f(X_i, theta0 + u_n b + u) / f(X_i, theta0 + u_n b) ]

is compared against the quadratic model

    zeta_n(u) = 2 u' sum_i phi_eps(X_i) - n u' I(theta0) u / 2,

where phi_eps truncates phi at |phi| < eps/u_n.  The sign of the quadratic
term is fixed by the requirement that the Gaussian-location identity
sum_xi(u) = zeta_n(u) holds exactly; the convention is recorded in every
emitted report.  The standardized truncated-score statistic is

    psi_n = n^{-1/2} I(theta0)^{-1/2} sum_i phi_eps(X_i).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridError
from .families import (
    FisherInfo,
    ParametricFamily,
    SampleBatch,
    fisher_information,
    loglik_grid,
    product_grid,
)

ZETA_SIGN_NOTE = "zeta_n(u) = 2 u'S_eps - n u'Iu/2 (quadratic term negative)"


@dataclass(frozen=True)
class TruncationPolicy:
    """Score truncation at |phi| < eps / u_n."""

    eps: float
    u_n: float

    def __post_init__(self):
        if not (self.eps > 0 and self.u_n > 0):
            raise ValueError("eps and u_n must be positive")

    @property
    def threshold(self) -> float:
        return self.eps / self.u_n

    @staticmethod
    def inactive() -> "TruncationPolicy":
        """A policy whose threshold never triggers."""
        return TruncationPolicy(eps=1e300, u_n=1.0)


@dataclass(frozen=True)
class LanDecomposition:
    """One evaluation of the expansion at displacement u under shift b."""

    b: np.ndarray
    u: np.ndarray
    sum_xi: float
    zeta: float
    psi: np.ndarray
    residual: float


def _score_and_cut(fam: ParametricFamily, theta0, policy: TruncationPolicy, x):
    """phi(x) and where |phi(x)| >= eps/u_n, with one temporary the size of
    the sample axes."""
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    phi = fam.score_phi(np.asarray(x, dtype=float), theta0)
    sq = np.asarray(np.einsum("...k,...k->...", phi, phi))  # 0-d for one observation
    return phi, np.sqrt(sq, out=sq) >= policy.threshold


def truncated_score(fam: ParametricFamily, theta0, policy: TruncationPolicy, x) -> np.ndarray:
    """phi(x) where |phi(x)| < eps/u_n, else 0; shaped x's sample axes + (d,):
    (n, d) for one sample (n[, obs_dim]), (R, n, d) for a stack of R, (d,)
    for one observation."""
    phi, cut = _score_and_cut(fam, theta0, policy, x)
    phi[cut] = 0.0
    return phi


def truncated_points(fam: ParametricFamily, theta0, policy: TruncationPolicy, x) -> np.ndarray:
    """Where truncated_score cuts phi to 0, shaped x's sample axes."""
    return _score_and_cut(fam, theta0, policy, x)[1]


def _sum_phi_eps(fam, sample: SampleBatch, theta0, policy) -> np.ndarray:
    return truncated_score(fam, theta0, policy, sample.observations).sum(axis=0)


def psi_n(
    fam: ParametricFamily,
    sample: SampleBatch,
    theta0,
    policy: TruncationPolicy,
    fisher: FisherInfo | None = None,
) -> np.ndarray:
    """n^{-1/2} I^{-1/2} sum phi_eps, shaped (d,)."""
    fisher = fisher or fisher_information(fam, theta0)
    s = _sum_phi_eps(fam, sample, theta0, policy)
    return fisher.inv_sqrt @ s / np.sqrt(sample.n)


def _row_dot(a, b) -> np.ndarray:
    """a[i] @ b[i] (or a[i] @ b for a 1-d b) per row, each a dot product of
    its own that rounds as the 1-d product of that row alone."""
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


def _zeta(u, s_eps, n: int, i_mat) -> np.ndarray:
    """The quadratic model 2 u's_eps - n u'Iu/2 at each row of the (G, d)
    stack u, shaped (G,)."""
    return _row_dot(2.0 * u, s_eps) - _row_dot(0.5 * n * u @ i_mat, u)


def zeta_n(
    fam: ParametricFamily,
    sample: SampleBatch,
    theta0,
    policy: TruncationPolicy,
    u,
    fisher: FisherInfo | None = None,
) -> float:
    """2 u'S_eps - n u'Iu/2 with S_eps the truncated score sum."""
    fisher = fisher or fisher_information(fam, theta0)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    s_eps = _sum_phi_eps(fam, sample, theta0, policy)
    return float(_zeta(u[None], s_eps, sample.n, fisher.matrix)[0])


def loglr_sum(fam: ParametricFamily, sample: SampleBatch, theta0, b, u, u_n: float) -> float:
    """sum_i log[f(X_i, theta0 + u_n b + u) / f(X_i, theta0 + u_n b)]."""
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    base = theta0 + u_n * b
    shifted = base + u
    for t in (base, shifted):
        if not fam.theta_domain.contains(t):
            raise DomainError(f"shifted parameter {t.tolist()} outside domain")
    obs = sample.observations
    return float(np.sum(fam.log_density(obs, shifted) - fam.log_density(obs, base)))


def lan_residual(
    fam: ParametricFamily,
    sample: SampleBatch,
    theta0,
    b,
    u,
    policy: TruncationPolicy,
    fisher: FisherInfo | None = None,
) -> LanDecomposition:
    """Full decomposition record at displacement u: residual = sum_xi - zeta_n(u)."""
    fisher = fisher or fisher_information(fam, theta0)
    b = np.atleast_1d(np.asarray(b, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    s_xi = loglr_sum(fam, sample, theta0, b, u, policy.u_n)
    s_eps = _sum_phi_eps(fam, sample, theta0, policy)
    z = float(_zeta(u[None], s_eps, sample.n, fisher.matrix)[0])
    psi = fisher.inv_sqrt @ s_eps / np.sqrt(sample.n)
    return LanDecomposition(b=b, u=u, sum_xi=s_xi, zeta=z, psi=psi, residual=s_xi - z)


def _ball_grid(d: int, radius: float, step: float) -> np.ndarray:
    """Axis-aligned grid of displacements with |u| < radius, deterministic order."""
    if radius <= 0:
        return np.empty((0, d))
    kmax = int(np.floor(radius / step))
    while kmax * step >= radius:
        kmax -= 1
    pts = product_grid([np.arange(-kmax, kmax + 1) * step] * d)
    return pts[np.einsum("ij,ij->i", pts, pts) < radius**2]


def sup_lan_residual(
    fam: ParametricFamily,
    sample: SampleBatch,
    theta0,
    b,
    C: float,
    u_n: float,
    policy: TruncationPolicy,
    grid_step: float,
    fisher: FisherInfo | None = None,
) -> float:
    """max |sum_xi(u) - zeta_n(u)| over the grid of u with |u| < C u_n.

    The supremum is a deterministic grid maximum; grid_step must not exceed
    u_n / 20.  sum_xi is read off one loglik_grid pass over the base point
    and the grid, so a family with a sufficient statistic takes O(G) after
    one pass over the sample.
    """
    if grid_step > u_n / 20.0 + 1e-15:
        raise GridError(f"grid_step {grid_step} exceeds u_n/20 = {u_n / 20.0}")
    if grid_step <= 0:
        raise GridError("grid_step must be positive")
    fisher = fisher or fisher_information(fam, theta0)
    grid = _ball_grid(fam.d, C * u_n, grid_step)
    if grid.shape[0] == 0:
        return 0.0
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    s_eps = _sum_phi_eps(fam, sample, theta0, policy)
    base = theta0 + u_n * b
    shifted = base + grid
    dom = fam.theta_domain
    inside = np.all((shifted > dom.lo) & (shifted < dom.hi), axis=1)
    if not inside.all():
        bad = shifted[int(np.argmin(inside))]
        raise DomainError(f"grid point {bad.tolist()} outside domain")
    ll = loglik_grid(fam, sample.observations[None], np.concatenate((base[None], shifted)))[0]
    zeta = _zeta(grid, s_eps, sample.n, fisher.matrix)
    return float(np.max(np.abs(ll[1:] - ll[0] - zeta)))


def lr_process(fam: ParametricFamily, sample: SampleBatch, theta0, u) -> float:
    """Z_n(u) = exp(sum_xi with b = 0); landscape diagnostic only."""
    return float(np.exp(loglr_sum(fam, sample, theta0, np.zeros(fam.d), u, 1.0)))
