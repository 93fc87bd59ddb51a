"""Numerical certification of regularity conditions.

Every check evaluates its condition on explicit finite grids and returns a
ConditionReport carrying the verdict, the constants used, and witnesses
(the measured extremal values with their thresholds).  A fail verdict
always points at a concrete violating input; "inconclusive" exists because
finiteness over an uncountable neighborhood cannot be certified by finitely
many evaluations, only refuted.

Checks covered: the root-density quadratic-mean expansion (DQM) with its
modulus omega, identifiability through Hellinger separation (A0),
exponential envelope moments (A1/A2), truncated likelihood-ratio moments
(B), modulus and truncated-score decay rates (C1/C2), gradient moments (D),
centered log-ratio moments (E), and loss regularity.

Each integral passes integrate_support the parameters its integrand reads,
such as theta0 and theta0 + tau: a line splits at them and the plane centres
its window on their mean, except A1/A2's, left at the origin where the abs
envelope kinks.

B and C1b share one truncated-moment integrator, _truncated_moment: the
crossings of |g| = t come from one array scan (a root on a scan node
counts), and every sign change is refined at once by _refine, a batched
Chandrupatla bracketing method, to brentq's default tolerance.  1-d
supports are integrated whole with the crossings as breaks, where a
quadrature that does not converge raises QuadratureError, and planar
supports along polar rays, all rays scanned and refined as one (ray,
radius) array.

A0, B and D take an inf or sup over theta.  For a location family
(ParametricFamily.location) the integral does not depend on theta, so they
integrate one theta per tau: A0 the first feasible theta of its scan, B the
first feasible point of its neighborhood, D the first grid node.  On 1-d
continuous supports A0 integrates all its pairs as the rows of one call of
the adaptive rule of integrate_support, each split at theta and theta + tau;
on the other supports it calls hellinger_affinity pair by pair.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    DivergenceError,
    GridError,
    MonotoneError,
    NonDifferentiableWarning,
    QuadratureError,
)
from .families import (
    Box,
    ParametricFamily,
    ScoreModel,
    _as_step,
    _integrate_line,
    _leggauss,
    expect,
    fisher_information,
    hellinger_affinity,
    integrate_support,
    product_grid,
    score,
)

DEFAULT_BOUND = 1e6


@dataclass(frozen=True)
class Witness:
    input: object
    value: float
    threshold: float

    def to_json(self) -> dict:
        return {
            "input": _jsonable(self.input),
            "value": float(self.value),
            "threshold": float(self.threshold),
        }


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    verdict: str  # "pass" | "fail" | "inconclusive"
    parameters: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "condition": self.condition,
            "verdict": self.verdict,
            "parameters": _jsonable(self.parameters),
            "witnesses": [w.to_json() for w in self.witnesses],
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


# ---------------------------------------------------------------------------
# Truncated moments E_theta[h 1(|g| > t)], shared by B and C1b
# ---------------------------------------------------------------------------

_SCAN_NODES = 4001
_RAYS = 64
# the rays' unit directions at angles 2 pi j / _RAYS: the first quadrant's,
# then their exact quarter turns (x, y) -> (-y, x), so that a quarter turn of
# the integrand maps the rays onto each other bit for bit
_QUADRANT = np.array(
    [[math.cos(2.0 * math.pi * j / _RAYS), math.sin(2.0 * math.pi * j / _RAYS)]
     for j in range(_RAYS // 4)]
)
_TURNED = _QUADRANT[:, ::-1] * [-1.0, 1.0]
_RAY_DIRECTIONS = np.concatenate([_QUADRANT, _TURNED, -_QUADRANT, -_TURNED])
# a bracket narrower than _XTOL + _RTOL |x| holds its root (brentq's defaults)
_XTOL = 1e-12
_RTOL = 4.0 * np.finfo(float).eps
_REFINE_ROUNDS = 100


def _refine(fn: Callable, x1, x2, f1, f2) -> np.ndarray:
    """Roots in the brackets [x1_i, x2_i], where f1_i and f2_i differ in sign.

    Chandrupatla's method (Chandrupatla, Adv. Eng. Softw. 28, 1997) on every
    bracket at once: inverse quadratic interpolation where it is safe,
    bisection elsewhere.  fn(x, i) evaluates bracket i[j]'s function at x[j]
    for the brackets still open, one call per round.  A bracket closes on an
    exact zero or once narrower than _XTOL + _RTOL |x|, and each bracket's
    steps depend on its own values only.
    """
    x1, x2 = np.array(x1, dtype=float), np.array(x2, dtype=float)
    f1, f2 = np.array(f1, dtype=float), np.array(f2, dtype=float)
    t = np.full(x1.size, 0.5)
    root = np.empty(x1.size)
    open_ = np.arange(x1.size)
    for _ in range(_REFINE_ROUNDS):
        if open_.size == 0:
            break
        xt = x1 + t * (x2 - x1)
        ft = np.asarray(fn(xt, open_), dtype=float)
        # the new point replaces the end of its own sign; x3 keeps the one dropped
        same = np.sign(ft) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = xt, ft
        # the end nearer zero is the root so far, and final once the bracket closes
        near = np.abs(f1) < np.abs(f2)
        xm = np.where(near, x1, x2)
        root[open_] = xm
        tol = _XTOL + _RTOL * np.abs(xm)
        dx = np.abs(x2 - x1)
        live = (np.where(near, f1, f2) != 0.0) & (dx > tol)
        open_ = open_[live]
        x1, x2, x3, f1, f2, f3 = (v[live] for v in (x1, x2, x3, f1, f2, f3))
        tol, dx = tol[live], dx[live]
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            alpha = (x3 - x1) / (x2 - x1)
            iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            t = np.where(
                iqi,
                f1 / (f1 - f2) * f3 / (f3 - f2) - alpha * f1 / (f3 - f1) * f2 / (f2 - f3),
                0.5,
            )
        lim = 0.5 * tol / dx
        t = np.clip(t, lim, 1.0 - lim)
    return root


def _row_crossings(fn: Callable, grid: np.ndarray, values: np.ndarray) -> tuple:
    """Roots of each row's function over the grid: (rows, roots), sorted by
    row, then root.

    values[k] holds row k's function on the grid, and fn(x, k) evaluates row
    k[j]'s function at x[j].  A node where a row is exactly zero is a root,
    and each sign change between neighbouring finite values is refined by
    _refine, all rows' brackets at once.
    """
    ok = np.isfinite(values)
    node_rows, node_cols = np.nonzero(ok & (values == 0.0))
    rows, cols = np.nonzero(ok[:, :-1] & ok[:, 1:] & (values[:, :-1] * values[:, 1:] < 0.0))
    refined = _refine(
        lambda x, i: fn(x, rows[i]), grid[cols], grid[cols + 1],
        values[rows, cols], values[rows, cols + 1],
    )
    rows = np.concatenate([node_rows, rows])
    roots = np.concatenate([grid[node_cols], refined])
    order = np.lexsort((roots, rows))
    return rows[order], roots[order]


def _crossings(fn: Callable, grid: np.ndarray) -> list[float]:
    """Roots of the vectorized fn over the grid's span, sorted.

    fn is evaluated once on the whole grid; a node where it is exactly zero
    is a root, and the sign changes between neighbouring finite values are
    refined together by _refine.
    """
    v = np.asarray(fn(grid), dtype=float)
    _, roots = _row_crossings(lambda x, k: fn(x), grid, v[None, :])
    return roots.tolist()


def _ray_segments(starts, ends, nodes, wts) -> tuple:
    """Panelwise Gauss-Legendre on the radial segments [starts_s, ends_s]:
    (segment, radius, weight times radius) per node, segment by segment.

    Each segment is cut into max(1, ceil(length)) equal panels with the
    edges np.linspace would give; panels of width <= 1 keep the rule
    resolved against the unit-scale decay of the density.
    """
    panels = np.maximum(1, np.ceil(ends - starts)).astype(int)
    seg = np.repeat(np.arange(starts.size), panels)
    j = np.arange(seg.size) - np.repeat(np.cumsum(panels) - panels, panels)
    step = ((ends - starts) / panels)[seg]
    left = j * step + starts[seg]
    right = np.where(j + 1 == panels[seg], ends[seg], (j + 1) * step + starts[seg])
    half = (0.5 * (right - left))[:, None]
    r = (half * nodes + (left[:, None] + half)).ravel()
    return np.repeat(seg, nodes.size), r, (half * wts).ravel() * r


def _truncated_moment(fam, theta, log_h, g, t: float, span: float, breaks=()) -> tuple[float, bool]:
    """E_theta[exp(log_h(X)) 1(|g(X)| > t)], and whether an exponent passed 690.

    The crossings of |g| = t are sought within distance span of theta.  The
    binary support is summed exactly; 1-d supports are integrated whole by
    integrate_support, split at theta, the crossings and the given breaks
    (the other parameters g or h read).  A planar support is integrated in
    polar coordinates about theta: along each of 64 rays of length span (at most
    60) the crossings split the ray, each active segment gets panelwise
    Gauss-Legendre, and the trapezoid rule over the angle converges
    geometrically for the smooth periodic remainder.  |g| - t is evaluated
    on all rays' scan nodes as one array, every ray's sign changes are
    refined by one batched _refine, and every segment's midpoint is probed
    by one call of g, so each ray sees what a scan of that ray alone would.
    Where the exponent log_h + log f passes 690, exp would pass 1e300: the
    exponent is clipped there and the flag is set, and a quadrature that
    then fails to converge reports inf instead of raising.
    """
    over = False

    def integrand(x):
        nonlocal over
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):  # log_h is -inf where h vanishes
            e = np.where(np.abs(g(x)) > t, log_h(x) + fam.log_density(x, theta), -np.inf)
        if np.any(e > 690.0):
            over = True
            e = np.minimum(e, 690.0)
        return np.exp(e)

    if fam.support.kind == "real2":
        # planar families are unit-scale (see integrate_support): past radius
        # 60 the density is below e^-1800, so longer rays would only add cost
        reach = min(span, 60.0)
        nodes, wts = _leggauss(24)
        radii = np.linspace(0.0, reach, _SCAN_NODES)

        def on_rays(r, ray):
            return theta + r[:, None] * _RAY_DIRECTIONS[ray]

        # |g| - t on every (ray, radius) node at once; row j is what a scan of
        # ray j alone would see.  The nodes are laid out coordinate-major, so
        # the elementwise passes run along the radii
        nodes_xy = theta[:, None, None] + _RAY_DIRECTIONS.T[:, :, None] * radii
        scan = np.abs(g(np.moveaxis(nodes_xy, 0, -1))) - t
        rays, roots = _row_crossings(lambda r, ray: np.abs(g(on_rays(r, ray))) - t, radii, scan)
        # each ray's segments run from 0 through its roots to reach
        counts = np.bincount(rays, minlength=_RAYS)
        seg_ray = np.repeat(np.arange(_RAYS), counts + 1)
        at = np.arange(rays.size) + rays  # a root ends segment `at` and starts `at + 1`
        starts, ends = np.zeros(seg_ray.size), np.full(seg_ray.size, reach)
        ends[at], starts[at + 1] = roots, roots
        keep = ends - starts >= 1e-12
        seg_ray, starts, ends = seg_ray[keep], starts[keep], ends[keep]
        active = np.abs(g(on_rays(0.5 * (starts + ends), seg_ray))) > t
        if not active.any():
            return 0.0, False
        seg, r, w = _ray_segments(starts[active], ends[active], nodes, wts)
        val = float(integrand(on_rays(r, seg_ray[active][seg])) @ w)
        return val * (2.0 * math.pi / _RAYS), over

    breaks = [theta, *breaks]
    if fam.support.kind != "binary":
        lo = 0.0 if fam.support.kind == "halfline" else theta[0] - span
        grid = np.linspace(lo, theta[0] + span, _SCAN_NODES)
        breaks += _crossings(lambda x: np.abs(g(x)) - t, grid)
    try:
        return integrate_support(fam, integrand, breaks), over
    except QuadratureError:
        if not over:
            raise
        return math.inf, True


# ---------------------------------------------------------------------------
# DQM and the modulus omega
# ---------------------------------------------------------------------------


def _tau_magnitudes(tau_grid) -> np.ndarray:
    return np.array([float(np.linalg.norm(np.atleast_1d(t))) for t in tau_grid])


def _dqm_omega(fam: ParametricFamily, theta0: np.ndarray, tau: np.ndarray) -> float:
    """E[(sqrt f_{theta0+tau} - sqrt f_theta0 (1 + phi'tau))^2] / |tau|^2.

    The residual is O(|tau|^4); it is integrated divided by |tau|^4, so that
    the absolute tolerance of integrate_support acts as a relative one, and
    multiplied back by |tau|^2.  The density's root stays inside the square:
    exp((l1 - l0)/2) alone overflows in the far tail where f_theta0
    underflows, and inf * 0 would poison the quadrature.
    """
    t1 = theta0 + tau
    m2 = float(tau @ tau)

    def integrand(x):
        root0 = np.exp(0.5 * fam.log_density(x, theta0))
        r = np.exp(0.5 * fam.log_density(x, t1)) - root0 * (1.0 + fam.score_phi(x, theta0) @ tau)
        return r * r / (m2 * m2)

    return integrate_support(fam, integrand, [theta0, t1]) * m2


def check_dqm(fam: ParametricFamily, theta0, tau_grid) -> tuple[ScoreModel, ConditionReport]:
    """Fit omega_hat(|tau|) = max_directions E[(g - tau'phi)^2] / |tau|^2.

    The grid must span at least two decades of |tau| and reach 1e-3; the
    verdict is pass when the isotonic omega_hat at the smallest magnitude is
    below 1e-3.
    """
    mags = _tau_magnitudes(tau_grid)
    uniq = np.unique(np.round(mags, 12))
    if uniq.size < 3:
        raise GridError("tau grid needs at least 3 distinct magnitudes")
    if uniq.min() > 1e-3 * (1 + 1e-9) or uniq.max() / uniq.min() < 100.0 * (1 - 1e-9):
        raise GridError("tau grid must span two decades down to 1e-3")
    theta0 = fam.validate_theta(theta0)

    per_mag: dict[float, float] = {}
    for tau in tau_grid:
        tau = _as_step(fam, tau, "tau")
        key = float(np.round(np.linalg.norm(tau), 12))
        per_mag[key] = max(per_mag.get(key, 0.0), _dqm_omega(fam, theta0, tau))

    order = np.argsort(np.array(list(per_mag)))
    mags_sorted = np.array(list(per_mag))[order]
    omega = np.array([per_mag[m] for m in mags_sorted])
    omega_iso = np.maximum.accumulate(omega)  # nondecreasing in |tau|
    table = np.column_stack([mags_sorted, omega_iso])

    verdict = "pass" if omega_iso[0] < 1e-3 else "fail"
    witnesses = [Witness(float(m), float(w), 1e-3) for m, w in zip(mags_sorted, omega_iso)]
    report = ConditionReport(
        condition="DQM",
        verdict=verdict,
        parameters={"theta0": theta0, "tolerance": 1e-3, "raw_omega": omega},
        witnesses=witnesses,
    )
    model = ScoreModel(
        theta0=theta0, phi_values=lambda x: score(fam, theta0, x), omega_fit=table
    )
    return model, report


# ---------------------------------------------------------------------------
# A0: Hellinger separation
# ---------------------------------------------------------------------------


def _a0_scan(fam: ParametricFamily, thetas: np.ndarray, taus) -> tuple:
    """H^2 over the feasible (theta, tau) pairs, first minimum in (theta, tau)
    order.

    A location family's H^2(theta, theta + tau) is the same at every theta,
    so each tau is integrated at its first feasible theta only.  On a 1-d
    continuous support every pair is a row of one call of _integrate_line,
    split at theta and theta + tau, so each affinity is hellinger_affinity's
    bit for bit; other pairs go to hellinger_affinity one at a time (an
    exact two-point sum on the binary support, the two-order tensor rule of
    integrate_support on the plane).
    """
    dom = fam.theta_domain
    hits = []  # (theta index, tau index)
    for j, tau in enumerate(taus):
        t1 = thetas + tau
        ok = np.nonzero(np.all((t1 > dom.lo) & (t1 < dom.hi), axis=1))[0]
        hits += [(i, j) for i in ok[: 1 if fam.location else None]]
    if not hits:
        return math.inf, None
    pairs = [(thetas[i], taus[j]) for i, j in sorted(hits)]
    if fam.support.kind in ("real", "halfline"):
        theta = np.array([p[0] for p in pairs])
        shifted = theta + np.array([p[1] for p in pairs])

        def root_product(x, row):
            return np.exp(
                0.5 * (fam.log_density(x, theta[row]) + fam.log_density(x, shifted[row]))
            )

        aff = np.minimum(_integrate_line(root_product, fam, np.hstack([theta, shifted])), 1.0)
    else:
        aff = np.array([hellinger_affinity(fam, *p) for p in pairs])
    h2 = 2.0 * (1.0 - aff)
    i = int(np.argmin(h2))
    return float(h2[i]), (pairs[i][0].copy(), pairs[i][1].copy())


def check_a0(fam: ParametricFamily, compact: Box, delta: float) -> ConditionReport:
    """inf of H^2(theta, theta+tau) over theta in the compact, |tau| >= delta.

    theta runs over a delta/10 grid on the compact and tau over six
    magnitudes from delta along each signed axis; _a0_scan integrates the
    pairs, one theta per tau for a location family.
    """
    if delta <= 0:
        raise GridError("delta must be positive")
    diam = float(np.linalg.norm(fam.theta_domain.width()))
    if delta > diam:
        raise GridError(f"delta {delta} exceeds domain diameter {diam}")
    if not (
        np.all(compact.lo >= fam.theta_domain.lo) and np.all(compact.hi <= fam.theta_domain.hi)
    ):
        raise GridError("compact must lie inside the parameter domain")

    step = delta / 10.0
    thetas = product_grid(
        [np.arange(compact.lo[i], compact.hi[i] + step / 2, step) for i in range(fam.d)]
    )

    margin = 1e-9 * np.max(fam.theta_domain.width())
    mag_factors = np.array([1.0, 1.3, 1.7, 2.2, 3.0, 4.0])
    directions = []
    for i in range(fam.d):
        e = np.zeros(fam.d)
        e[i] = 1.0
        directions.extend([e.copy(), -e])

    clipped = np.stack([fam.theta_domain.clip_interior(t, margin) for t in thetas])
    taus = [delta * f * e for e in directions for f in mag_factors]
    best, best_at = _a0_scan(fam, clipped, taus)
    if best_at is None:
        raise GridError("no feasible (theta, tau) pair: delta too large for the compact")

    verdict = "pass" if best > 1e-6 else "fail"
    return ConditionReport(
        condition="A0",
        verdict=verdict,
        parameters={"delta": delta, "compact_lo": compact.lo, "compact_hi": compact.hi},
        witnesses=[Witness({"theta": best_at[0], "tau": best_at[1]}, float(best), 1e-6)],
    )


# ---------------------------------------------------------------------------
# B: truncated likelihood-ratio moments
# ---------------------------------------------------------------------------


def check_moment_b(
    fam: ParametricFamily,
    theta0,
    u_n: float,
    eps: float,
    gamma_n: float,
    tau_grid,
    c1: float = 2.0,
    bound: float = DEFAULT_BOUND,
) -> ConditionReport:
    """E_theta[(LR 1(|log LR| > eps))^gamma_n] over a theta neighborhood and tau grid.

    The neighborhood is theta0 and theta0 +- u_n e_i.  A location family's
    moment is the same at every theta, so it takes only the first point
    feasible with tau (theta0, unless theta0 + tau leaves the domain).
    """
    if eps <= 0 or gamma_n < 1:
        raise GridError("need eps > 0 and gamma_n >= 1")
    theta0 = fam.validate_theta(theta0)
    overflow = False
    worst = 0.0
    worst_at = None
    witnesses = []

    neigh = [theta0]
    for i in range(fam.d):
        e = np.zeros(fam.d)
        e[i] = u_n
        neigh.extend([theta0 + e, theta0 - e])
    dom = fam.theta_domain

    for tau in tau_grid:
        tau = _as_step(fam, tau, "tau")
        if np.linalg.norm(tau) >= c1 * u_n:
            raise GridError(f"|tau| = {np.linalg.norm(tau):.4g} not below C1 u_n = {c1 * u_n:.4g}")
        # |log LR| grows about like |tau| |x - theta|, so it crosses eps near eps/|tau|
        span = 2.0 * eps / max(float(np.linalg.norm(tau)), 1e-8) + 60.0
        thetas = [t for t in neigh if dom.contains(t) and dom.contains(t + tau)]
        for theta in thetas[: 1 if fam.location else None]:
            t1 = theta + tau

            def log_lr(x, theta=theta, t1=t1):
                return fam.log_density(x, t1) - fam.log_density(x, theta)

            val, ovf = _truncated_moment(
                fam, theta, lambda x: gamma_n * log_lr(x), log_lr, eps, span, [t1]
            )
            overflow = overflow or ovf
            witnesses.append(Witness({"theta": theta, "tau": tau}, float(val), bound))
            if val > worst:
                worst, worst_at = val, (theta, tau)

    if not witnesses:
        raise GridError("no feasible (theta, tau) pair: the neighborhood leaves the domain")
    if overflow:
        verdict = "inconclusive"
    else:
        verdict = "pass" if worst <= bound else "fail"
    params = {
        "u_n": u_n,
        "eps": eps,
        "gamma_n": gamma_n,
        "C1": c1,
        "bound": bound,
        "overflow_guard": overflow,
        "max_value": worst,
    }
    keep = witnesses if len(witnesses) <= 16 else witnesses[:: max(1, len(witnesses) // 16)]
    return ConditionReport("B", verdict, params, keep)


# ---------------------------------------------------------------------------
# A1/A2: exponential envelope moments
# ---------------------------------------------------------------------------


def check_exp_moment(
    fam: ParametricFamily,
    theta0,
    envelope_h: Callable,
    gamma: float,
    bound: float = DEFAULT_BOUND,
) -> ConditionReport:
    """E_theta exp(gamma h(X)) over a theta neighborhood; caller supplies h.

    The envelope is treated as n-independent; the report notes this
    convention.  Non-integrable growth raises DivergenceError.
    """
    if gamma <= 0:
        raise GridError("gamma must be positive")
    theta0 = fam.validate_theta(theta0)
    width = fam.theta_domain.width()
    offsets = [np.zeros(fam.d)]
    for i in range(fam.d):
        e = np.zeros(fam.d)
        e[i] = 0.05 * width[i]
        offsets.extend([e.copy(), -e])

    worst = 0.0
    worst_theta = theta0
    for off in offsets:
        theta = theta0 + off
        if not fam.theta_domain.contains(theta):
            continue
        _detect_divergence(fam, theta, envelope_h, gamma)

        def integrand(x, theta=theta):
            xa = np.asarray(x, dtype=float)
            # single exp of the summed exponents: exp(gamma h) alone overflows
            # where the density underflows, and inf * 0 poisons the quadrature
            return np.exp(gamma * np.asarray(envelope_h(xa)) + fam.log_density(xa, theta))

        try:
            # no points keep the plane's window on the origin, where |x| kinks
            val = integrate_support(fam, integrand, [] if fam.support.kind == "real2" else [theta])
        except QuadratureError as e:
            raise DivergenceError(f"exp-moment quadrature failed at theta={theta}: {e}") from e
        if not np.isfinite(val):
            raise DivergenceError(f"exp moment infinite at theta={theta}")
        if val > worst:
            worst, worst_theta = val, theta

    verdict = "pass" if worst <= bound else "fail"
    return ConditionReport(
        condition="A1A2",
        verdict=verdict,
        parameters={
            "gamma": gamma,
            "bound": bound,
            "envelope_note": "single n-independent envelope h",
        },
        witnesses=[Witness({"theta": worst_theta}, float(worst), bound)],
    )


def _detect_divergence(fam, theta, h, gamma):
    """Raise DivergenceError where gamma h + log f_theta still rises from
    distance 40 to 80 along a tail: each side of theta on a line, and on the
    plane the diagonal from the origin, where check_exp_moment centres its
    window."""
    kind = fam.support.kind
    if kind == "binary":
        return
    steps = np.array([40.0, 80.0])
    if kind == "real2":
        tails = [np.repeat(steps[:, None] / math.sqrt(2), 2, axis=1)]
    else:
        tails = [theta[0] + steps] + ([theta[0] - steps] if kind == "real" else [])
    for x in tails:
        far, farther = gamma * np.asarray(h(x)) + fam.log_density(x, theta)
        if farther > far and farther > -30.0:
            raise DivergenceError("integrand grows along the support tail")


# ---------------------------------------------------------------------------
# C1/C2: modulus decay and truncated second moments
# ---------------------------------------------------------------------------


def check_c(
    fam: ParametricFamily,
    theta0,
    u_grid,
    gamma: float,
    lam: float,
    eps: float = 0.5,
    bound: float = DEFAULT_BOUND,
) -> ConditionReport:
    """Decay checks on the modulus and the truncated score.

    C1: omega_hat(u) <= C u^lambda certified by a log-log slope >= lambda - 0.1,
    and E[phi^2 1(|phi| > eps/u)] <= C u^gamma pointwise on the grid.
    C2: |E g^2(tau) - tau' I tau / 4| <= C |tau|^(2+gamma), with the fitted
    log-log exponent reported.
    """
    u = np.asarray(list(u_grid), dtype=float)
    if u.size < 3 or np.any(u <= 0) or np.any(np.diff(u) >= 0):
        raise GridError("u_grid must be positive, strictly decreasing, length >= 3")
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    e1 = np.zeros(fam.d)
    e1[0] = 1.0
    fisher = fisher_information(fam, theta0)

    def phi_norm(x):
        return np.linalg.norm(fam.score_phi(x, theta0), axis=-1)

    def log_phi2(x):
        return 2.0 * np.log(phi_norm(x))

    # omega_hat along the first axis direction
    omega = np.empty(u.size)
    c2_diff = np.empty(u.size)
    trunc2 = np.empty(u.size)
    for k, uk in enumerate(u):
        tau = uk * e1
        t1 = theta0 + tau

        # g^2 f_theta0 with the density's root inside the square, as in
        # _dqm_omega
        def g2(x, t1=t1):
            r = np.exp(0.5 * fam.log_density(x, t1)) - np.exp(0.5 * fam.log_density(x, theta0))
            return r * r

        omega[k] = _dqm_omega(fam, theta0, tau)
        eg2 = integrate_support(fam, g2, [t1, theta0])
        c2_diff[k] = abs(eg2 - float(tau @ fisher.matrix @ tau) / 4.0)
        thr = eps / uk
        span = 14.0 + 8.0 * (thr + 1.0)
        trunc2[k], _ = _truncated_moment(fam, theta0, log_phi2, phi_norm, thr, span)

    pos = omega > 0
    slope_c1 = _loglog_slope(u[pos], omega[pos]) if np.count_nonzero(pos) >= 2 else math.inf
    pass_c1a = slope_c1 >= lam - 0.1
    c1b_bounds = bound * u**gamma
    pass_c1b = bool(np.all(trunc2 <= c1b_bounds))
    posd = c2_diff > 0
    slope_c2 = _loglog_slope(u[posd], c2_diff[posd]) if np.count_nonzero(posd) >= 2 else math.inf
    pass_c2 = bool(np.all(c2_diff <= bound * u ** (2.0 + gamma))) and (
        slope_c2 >= 2.0 + gamma - 0.1
    )

    verdict = "pass" if (pass_c1a and pass_c1b and pass_c2) else "fail"
    witnesses = [
        Witness({"u": float(uk)}, float(om), float(bound * uk**lam))
        for uk, om in zip(u, omega)
    ]
    witnesses += [
        Witness({"u": float(uk), "quantity": "truncated_phi2"}, float(t2), float(bk))
        for uk, t2, bk in zip(u, trunc2, c1b_bounds)
    ]
    witnesses += [
        Witness(
            {"tau": float(uk), "quantity": "c2_diff"}, float(dv), float(bound * uk ** (2 + gamma))
        )
        for uk, dv in zip(u, c2_diff)
    ]
    return ConditionReport(
        condition="C1C2",
        verdict=verdict,
        parameters={
            "gamma": gamma,
            "lambda": lam,
            "eps": eps,
            "bound": bound,
            "c1_loglog_slope": float(slope_c1),
            "c2_loglog_exponent": float(slope_c2),
        },
        witnesses=witnesses,
    )


def _loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    lx, ly = np.log(x), np.log(y)
    return float(np.polyfit(lx, ly, 1)[0])


# ---------------------------------------------------------------------------
# D: gradient moments
# ---------------------------------------------------------------------------


def check_d(fam: ParametricFamily, m: float, bound: float = DEFAULT_BOUND) -> ConditionReport:
    """sup over a theta grid of E_theta |grad log f|^m, m > d.

    A location family's moment is the same at every theta, so only the first
    grid node is integrated.
    """
    if not m > fam.d:
        raise GridError(f"m must exceed the parameter dimension {fam.d}")
    if fam.gradient_ae:
        warnings.warn(
            "gradient only defined almost everywhere; a.e. value used",
            NonDifferentiableWarning,
            stacklevel=2,
        )

    nodes_per_axis = 17 if fam.d == 1 else 5
    margin = 1e-9 * float(np.max(fam.theta_domain.width()))
    thetas = product_grid([
        np.linspace(fam.theta_domain.lo[i] + margin, fam.theta_domain.hi[i] - margin, nodes_per_axis)
        for i in range(fam.d)
    ])

    worst, worst_theta = 0.0, thetas[0]
    for theta in thetas[: 1 if fam.location else None]:

        def h(x, theta=theta):
            return np.linalg.norm(fam.grad_log_density(x, theta), axis=-1) ** m

        val = expect(fam, theta, h)
        if val > worst:
            worst, worst_theta = val, theta

    finite = np.isfinite(worst)
    verdict = "pass" if (finite and worst <= bound) else "fail"
    return ConditionReport(
        condition="D",
        verdict=verdict,
        parameters={"m": m, "bound": bound, "gradient_ae": fam.gradient_ae},
        witnesses=[Witness({"theta": worst_theta}, float(worst), bound)],
    )


# ---------------------------------------------------------------------------
# E: centered log-ratio moments
# ---------------------------------------------------------------------------


def check_e(
    fam: ParametricFamily,
    theta0,
    eps: float,
    beta1: float,
    beta2: float,
    pair_grid,
    bound: float = DEFAULT_BOUND,
) -> ConditionReport:
    """E|log f(.,theta0+v)/f(.,theta0+u) - 2(v-u)'phi_eps|^beta1 <= C|v-u|^beta2.

    eps is the absolute truncation cutoff on |phi| (pass eps/u_n for the
    scaled policy).  C is fitted as the largest ratio over the pair grid.
    """
    if not (beta1 > fam.d and beta2 > fam.d):
        raise GridError("beta1 and beta2 must exceed the parameter dimension")
    theta0 = fam.validate_theta(theta0)

    witnesses = []
    fitted_c = 0.0
    for u, v in pair_grid:
        u, v = _as_step(fam, u, "u"), _as_step(fam, v, "v")
        tu, tv = theta0 + u, theta0 + v
        for t in (tu, tv):
            if not fam.theta_domain.contains(t):
                raise GridError(f"shifted parameter {t.tolist()} outside domain")
        if np.allclose(u, v):
            witnesses.append(Witness({"u": u, "v": v}, 0.0, 0.0))
            continue
        dvu = v - u

        def integrand(x):
            lr = fam.log_density(x, tv) - fam.log_density(x, tu)
            p = fam.score_phi(x, theta0)
            nrm = np.linalg.norm(p, axis=-1)
            lin = 2.0 * np.where((nrm < eps)[..., None], p, 0.0) @ dvu
            return np.abs(lr - lin) ** beta1

        mom = expect(fam, theta0, integrand, [tu, tv])
        ratio = mom / float(np.linalg.norm(dvu)) ** beta2
        fitted_c = max(fitted_c, ratio)
        witnesses.append(Witness({"u": u, "v": v}, float(mom), float(ratio)))

    verdict = "pass" if (np.isfinite(fitted_c) and fitted_c <= bound) else "fail"
    return ConditionReport(
        condition="E",
        verdict=verdict,
        parameters={
            "eps": eps,
            "beta1": beta1,
            "beta2": beta2,
            "fitted_C": float(fitted_c),
            "bound": bound,
        },
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# Loss regularity
# ---------------------------------------------------------------------------


def check_loss(loss, a_grid, x_grid, bound: float = DEFAULT_BOUND) -> ConditionReport:
    """Certify l1(ax) <= C1 a^k1 l1(x) and (l1(ax)-l1(x))/l1(x) >= C2 (a-1)^k2.

    Fits (C1, k1, C2, k2) on the product grid and reports them; raises
    MonotoneError when l1 is not increasing from l1(0) = 0.
    """
    a = np.asarray(list(a_grid), dtype=float)
    x = np.asarray(list(x_grid), dtype=float)
    if np.any(a <= 1.0) or np.any(a > 10.0):
        raise GridError("a_grid must lie in (1, 10]")
    if np.any(x <= 0.0):
        raise GridError("x_grid must be positive")
    a = np.sort(a)
    x = np.sort(x)

    l0 = float(loss.l1(np.array([0.0]))[0])
    if abs(l0) > 1e-12:
        raise MonotoneError(f"l1(0) = {l0}, expected 0")
    eval_pts = np.unique(np.concatenate([x] + [ai * x for ai in a]))
    lv = loss.l1(eval_pts)
    if np.any(np.diff(lv) <= 0):
        i = int(np.argmax(np.diff(lv) <= 0))
        raise MonotoneError(
            f"l1 not strictly increasing between {eval_pts[i]:.6g} and {eval_pts[i + 1]:.6g}"
        )
    if np.any(lv <= 0):
        raise MonotoneError("l1 must be positive on positive arguments")

    lx = loss.l1(x)
    ratios = np.empty((a.size, x.size))
    incr = np.empty((a.size, x.size))
    for i, ai in enumerate(a):
        lax = loss.l1(ai * x)
        ratios[i] = lax / lx
        incr[i] = (lax - lx) / lx

    sup_ratio = ratios.max(axis=1)
    k1 = _loglog_slope(a, sup_ratio) if a.size >= 2 else math.log(sup_ratio[0]) / math.log(a[0])
    c1 = float(np.max(ratios / a[:, None] ** k1))
    inf_incr = incr.min(axis=1)
    if np.any(inf_incr <= 0):
        k2, c2 = math.inf, 0.0
    else:
        k2 = (
            _loglog_slope(a - 1.0, inf_incr)
            if a.size >= 2
            else math.log(inf_incr[0]) / math.log(a[0] - 1.0)
        )
        c2 = float(np.min(incr / (a[:, None] - 1.0) ** k2))

    ok = c2 > 0 and np.isfinite(k1) and np.isfinite(k2) and c1 <= bound
    verdict = "pass" if ok else "fail"
    i_worst = int(np.argmin(incr.min(axis=1)))
    return ConditionReport(
        condition="LOSS",
        verdict=verdict,
        parameters={"C1": c1, "kappa1": float(k1), "C2": c2, "kappa2": float(k2)},
        witnesses=[
            Witness({"a": float(a[i_worst])}, float(inf_incr[i_worst]), 0.0),
            Witness({"quantity": "sup_ratio", "a": float(a[-1])}, float(sup_ratio[-1]), bound),
        ],
    )
