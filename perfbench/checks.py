"""Output checks, computed without modev's sampling, likelihood or quadrature.

Every reference value here is a closed form evaluated with scipy.stats or
plain numpy: Gaussian tails, Bernoulli atom sums, the Gamma
tail of the exponential MLE, the binomial law of the odd-n Laplace median,
and the closed forms of the condition checks. Monte Carlo points must lie
within Z_MAX stderr of their tail; deterministic numbers must match to a
tolerance set by the quadrature accuracy modev requests (1e-10 absolute).

Each check takes the operation's result and returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy import special
from scipy import stats as sps

Z_MAX = 5.0  # Monte Carlo points may sit this many stderr from the exact tail
Z_FALL = 3.0  # a curve's fall over its schedule must be this many stderr
REL_TOL = 1e-6  # deterministic numbers against their closed forms
ABS_TOL = 1e-8


def read_curve(path: Path) -> list[dict]:
    """Rows of a modev rate-curve CSV as dicts of floats (n as int)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        rows.append({k: (int(v) if k == "n" else v if k == "method" else float(v))
                     for k, v in row.items()})
    return rows


def _close(got: float, want: float, rel: float = REL_TOL, abs_: float = ABS_TOL) -> bool:
    return math.isfinite(got) and abs(got - want) <= max(abs_, rel * abs(want))


# ---------------------------------------------------------------------------
# Exact log-tails of the half-space events
# ---------------------------------------------------------------------------


def gaussian_logtail(n: int, u: float, c: float = 1.0) -> float:
    """log P(xbar > u c) for xbar ~ N(0, 1/n)."""
    return float(sps.norm.logsf(math.sqrt(n) * u * c))


def bernoulli_logtail(n: int, u: float, theta0: float = 0.5, c: float = 1.0) -> float:
    """log P(2 (K/n - theta0) / sqrt(I^{-1}) > u c), K ~ Bin(n, theta0), as an atom sum."""
    sqrt_i = 1.0 / math.sqrt(theta0 * (1.0 - theta0))
    ks = np.arange(n + 1)
    hit = (ks / n - theta0) * sqrt_i > u * c
    return float(special.logsumexp(sps.binom.logpmf(ks[hit], n, theta0)))


def exponential_logtail(n: int, u: float, theta0: float = 1.0, c: float = 1.0) -> float:
    """log P(1/xbar > theta0 (1 + u c)): the sum of n Exp(theta0) is Gamma(n, 1/theta0)."""
    return float(sps.gamma.logcdf(n / (theta0 * (1.0 + u * c)), a=n, scale=1.0 / theta0))


def laplace_median_logtail(n: int, u: float, c: float = 1.0) -> float:
    """log P(median > u c) for odd n: at least (n+1)/2 of n Laplace(0, 1) draws
    exceed t = u c, each with probability e^{-t}/2."""
    if n % 2 == 0:
        raise ValueError("the median tail is closed-form for odd n only")
    q = math.exp(-u * c) / 2.0
    return float(sps.binom.logsf((n + 1) // 2 - 1, n, q))


# ---------------------------------------------------------------------------
# Rate-curve checks
# ---------------------------------------------------------------------------


def _mc_rows(rows, logtail, what: str) -> list[str]:
    problems = []
    for row in rows:
        n, u, p, se = row["n"], row["u_n"], row["p_hat"], row["stderr_log"]
        if not (p > 0 and math.isfinite(se) and se > 0):
            problems.append(f"{what} n={n}: no hits (p_hat={p}, stderr_log={se})")
            continue
        z = (math.log(p) - logtail(n, u)) / se
        if abs(z) > Z_MAX:
            problems.append(f"{what} n={n}: log p_hat {math.log(p):.6g} is {z:+.2f} stderr"
                            f" from the exact {logtail(n, u):.6g}")
    return problems


def _schedule_rows(rows, cfg: dict, what: str) -> list[str]:
    sch = cfg["schedule"]
    problems = []
    if [r["n"] for r in rows] != list(sch["n_values"]):
        problems.append(f"{what}: rows for n={[r['n'] for r in rows]}, asked {sch['n_values']}")
    for r in rows:
        want = sch["c"] * r["n"] ** (-sch["alpha"])
        if not _close(r["u_n"], want, 1e-12, 0.0):
            problems.append(f"{what} n={r['n']}: u_n {r['u_n']} is not c n^-alpha = {want}")
    return problems


def _curve_check(logtail, filename: str = "ldp_curve.csv"):
    def check(result) -> list[str]:
        out_dir, cfg = result
        rows = read_curve(out_dir / filename)
        return _schedule_rows(rows, cfg, filename) + _mc_rows(rows, logtail, filename)

    return check


gaussian_half_space = _curve_check(gaussian_logtail)  # also a'xbar for a unit a in the plane
bernoulli_half_space = _curve_check(bernoulli_logtail)
exponential_half_space = _curve_check(exponential_logtail)
laplace_median_tail = _curve_check(laplace_median_logtail)
_posterior_curve = _curve_check(gaussian_logtail, "posterior_concentration.csv")


def gaussian_posterior_mass(result) -> list[str]:
    """Mass-above-threshold 0.5 under the flat-prior posterior N(xbar, 1/n)
    happens exactly when xbar passes the threshold, so the tail is Gaussian.
    The grid dump holds raw log-weights of that posterior at the largest n:
    their second difference is -n h^2 on a grid of spacing h."""
    out_dir, cfg = result
    problems = _posterior_curve(result)
    n = max(cfg["schedule"]["n_values"])
    grid = np.loadtxt(out_dir / "posterior_grid.txt")
    nodes, lw = grid[:, 0], grid[:, 1]
    h = float(np.mean(np.diff(nodes)))
    second = lw[2:] - 2.0 * lw[1:-1] + lw[:-2]
    worst = float(np.max(np.abs(second + n * h * h)))
    if worst > 1e-6 * n * h * h:
        problems.append(f"posterior_grid.txt: log-weights not quadratic with curvature -n"
                        f" (worst second-difference gap {worst:.3g})")
    return problems


def gaussian_bahadur(result) -> list[str]:
    """Fixed-u curves: every point is a Gaussian tail at its own (n, u)."""
    out_dir, cfg = result
    problems = []
    for u in cfg["u_values"]:
        name = f"bahadur_u{u:g}.csv"
        rows = read_curve(out_dir / name)
        if not rows:
            problems.append(f"{name}: no points")
        for r in rows:
            if r["u_n"] != u:
                problems.append(f"{name} n={r['n']}: u_n {r['u_n']} is not the fixed u {u}")
        problems += _mc_rows(rows, gaussian_logtail, name)
    return problems


def laplace_equivalence(result) -> list[str]:
    """Coupling-failure curves (C4b, C4c), judged with their stderr.

    Every point has hits. p_hat falls in n: no step rises by more than Z_MAX
    combined stderr, and the fall from the smallest to the largest n exceeds
    Z_FALL of them. The lr_vs_wald rate at the largest n is above the rate of
    the half-space MLE event (the exact odd-n median tail), up to Z_MAX stderr.
    The discrepancy weights are heavy-tailed: at 2,000 replications a step's
    estimate can move by 2 stderr, so strict comparisons of the raw numbers
    would fail on some seeds without any fault in the program.
    """
    out_dir, cfg = result
    problems = []
    for kind in ("mle_vs_psi", "lr_vs_wald", "lr_vs_psi2"):
        name = f"equivalence_{kind}.csv"
        rows = read_curve(out_dir / name)
        problems += _schedule_rows(rows, cfg, name)
        if not all(r["p_hat"] > 0 and math.isfinite(r["stderr_log"]) for r in rows):
            problems.append(f"{name}: a point without hits: {[r['p_hat'] for r in rows]}")
            continue
        logs = [(math.log(r["p_hat"]), r["stderr_log"]) for r in rows]
        for (a, sa), (b, sb) in zip(logs, logs[1:]):
            if b - a > Z_MAX * math.hypot(sa, sb):
                problems.append(f"{name}: log p_hat rises from {a:.4g} to {b:.4g}")
        (a, sa), (b, sb) = logs[0], logs[-1]
        if not b - a < -Z_FALL * math.hypot(sa, sb):
            problems.append(f"{name}: log p_hat {a:.4g} at n={rows[0]['n']} to {b:.4g} at"
                            f" n={rows[-1]['n']} is no significant fall")
        if kind == "lr_vs_wald":
            n, u = rows[-1]["n"], rows[-1]["u_n"]
            log_mle = laplace_median_logtail(n, u)
            if b > log_mle + Z_MAX * sb:
                problems.append(f"{name}: log p_hat {b:.4g} at n={n} lies above the MLE event's"
                                f" {log_mle:.4g}: its rate is not the larger")
    return problems


# ---------------------------------------------------------------------------
# Condition checks
# ---------------------------------------------------------------------------


def _hellinger2(family: str, theta: np.ndarray, tau: np.ndarray) -> float:
    """Squared Hellinger distance 2(1 - affinity) between theta and theta + tau."""
    s = float(np.linalg.norm(tau))
    if family in ("gaussian", "gaussian2"):
        return 2.0 * (1.0 - math.exp(-s * s / 8.0))
    if family == "laplace":
        return 2.0 * (1.0 - (1.0 + s / 2.0) * math.exp(-s / 2.0))
    t0, t1 = float(theta[0]), float(theta[0] + tau[0])
    if family == "bernoulli":
        return 2.0 * (1.0 - math.sqrt(t0 * t1) - math.sqrt((1.0 - t0) * (1.0 - t1)))
    if family == "exponential":
        return 2.0 * (1.0 - 2.0 * math.sqrt(t0 * t1) / (t0 + t1))
    raise ValueError(family)


def _gradient_moment(family: str, theta: np.ndarray, m: float) -> float:
    """E_theta |grad_theta log f(X, theta)|^m."""
    if family == "gaussian":  # E|Z|^m
        return 2 ** (m / 2) * math.gamma((m + 1) / 2) / math.sqrt(math.pi)
    if family == "gaussian2":  # E|Z|^m, Z ~ N(0, I_2): a Rayleigh moment
        return 2 ** (m / 2) * math.gamma(1 + m / 2)
    if family == "laplace":  # |sign(x - theta)| = 1 almost everywhere
        return 1.0
    t = float(theta[0])
    if family == "bernoulli":  # grad = (x - t) / (t (1 - t))
        return t ** (1 - m) + (1 - t) ** (1 - m)
    if family == "exponential" and m == 3:  # grad = 1/t - x; E|1 - Y|^3 = 12/e - 2
        return t**-3 * (12.0 / math.e - 2.0)
    raise ValueError(f"no gradient moment for {family} at m={m}")


def _log_normal_lr_moment(s: float, eps: float, gamma: float) -> float:
    """E[e^{gamma L} 1(|L| > eps)] for L ~ N(-s^2/2, s^2), the log-likelihood
    ratio of a unit Gaussian location shift of length s."""
    mu, var = -s * s / 2.0, s * s
    shift = mu + gamma * var
    log_mgf = gamma * mu + gamma * gamma * var / 2.0
    upper = sps.norm.logsf((eps - shift) / s)
    lower = sps.norm.logcdf((-eps - shift) / s)
    return math.exp(log_mgf + np.logaddexp(upper, lower))


def _lr_moment(family: str, theta: np.ndarray, tau: np.ndarray, eps: float, gamma: float) -> float:
    """E_theta[(f_{theta+tau}/f_theta)^gamma 1(|log f_{theta+tau}/f_theta| > eps)]."""
    s = float(np.linalg.norm(tau))
    if s == 0.0:
        return 0.0
    if family in ("gaussian", "gaussian2"):
        return _log_normal_lr_moment(s, eps, gamma)
    if family == "laplace":  # |L| <= |tau|, so the indicator is empty when |tau| <= eps
        if s <= eps:
            return 0.0
        raise ValueError("Laplace B moment is closed-form only for |tau| <= eps")
    t0, t1 = float(theta[0]), float(theta[0] + tau[0])
    if family == "bernoulli":
        total = 0.0
        for p0, p1 in ((t0, t1), (1.0 - t0, 1.0 - t1)):
            lr = math.log(p1 / p0)
            if abs(lr) > eps:
                total += p0 * math.exp(gamma * lr)
        return total
    if family == "exponential":
        # L(x) = c - tau x; integrate t0 e^{gamma c} e^{-k x} over {|L| > eps}, x >= 0
        c, tv = math.log(t1 / t0), t1 - t0
        k = t0 + gamma * tv
        above, below = (c - eps) / tv, (c + eps) / tv  # where L = eps and L = -eps
        pieces = [(0.0, above), (below, math.inf)] if tv > 0 else [(above, math.inf), (0.0, below)]
        total = 0.0
        for a, b in pieces:
            a = max(a, 0.0)
            if b > a:
                total += (math.exp(-k * a) - (0.0 if math.isinf(b) else math.exp(-k * b))) / k
        return t0 * math.exp(gamma * c) * total
    raise ValueError(family)


def _exp_moment(family: str, theta: np.ndarray, envelope: str, gamma: float):
    """E_theta exp(gamma h(X)) where it has a closed form, else None."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if family == "gaussian" and envelope == "abs":
        t = float(th[0])
        return math.exp(gamma * gamma / 2.0) * (
            math.exp(gamma * t) * sps.norm.cdf(t + gamma) + math.exp(-gamma * t) * sps.norm.cdf(gamma - t)
        )
    if family == "gaussian2" and envelope == "square":
        return math.exp(gamma * float(th @ th) / (1.0 - 2.0 * gamma)) / (1.0 - 2.0 * gamma)
    return None


def _input(w: dict, key: str) -> np.ndarray:
    return np.atleast_1d(np.asarray(w["input"][key], dtype=float))


def conditions(family: str, check: str):
    """Check one condition report of check-conditions against its closed form.

    Every report must pass: each built-in family satisfies the conditions.
    """

    def run(result) -> list[str]:
        out_dir, cfg = result
        reports = json.loads((out_dir / "conditions.json").read_text(encoding="utf-8"))
        if len(reports) != 1:
            return [f"conditions.json: {len(reports)} reports, expected 1"]
        rep = reports[0]
        par, wit = rep["parameters"], rep["witnesses"]
        problems = []
        if rep["verdict"] != "pass":
            problems.append(f"{family} {rep['condition']}: verdict {rep['verdict']}")
        pairs = []  # (label, got, want)
        if check == "a0":
            w = wit[0]
            if family in ("bernoulli", "exponential"):  # the distance at the witness
                want = _hellinger2(family, _input(w, "theta"), _input(w, "tau"))
            else:  # location families: the infimum is at |tau| = delta, any theta
                want = _hellinger2(family, np.zeros(1), np.array([par["delta"]]))
            pairs.append(("A0 infimum", w["value"], want))
        elif check == "d":
            w = wit[0]
            pairs.append(("D moment", w["value"], _gradient_moment(family, _input(w, "theta"), par["m"])))
        elif check == "moment_b":
            for w in wit:
                want = _lr_moment(family, _input(w, "theta"), _input(w, "tau"),
                                  par["eps"], par["gamma_n"])
                pairs.append((f"B moment at {w['input']}", w["value"], want))
        elif check == "e" and family in ("gaussian", "gaussian2"):
            # untruncated (eps = 1e6): log f_v - log f_u - 2 (v - u)'phi = -(|v|^2 - |u|^2)/2
            for w in wit:
                u, v = _input(w, "u"), _input(w, "v")
                want = abs((v @ v - u @ u) / 2.0) ** par["beta1"]
                pairs.append((f"E moment at {w['input']}", w["value"], want))
        elif check == "exp_moment":
            w = wit[0]
            want = _exp_moment(family, _input(w, "theta"), cfg.get("exp_envelope", "abs"), par["gamma"])
            if want is not None:
                pairs.append(("A1/A2 moment", w["value"], want))
        for label, got, want in pairs:
            if not _close(got, want):
                problems.append(f"{family} {label}: {got:.10g} against closed form {want:.10g}")
        return problems

    return run


# ---------------------------------------------------------------------------
# The quadratic expansion
# ---------------------------------------------------------------------------


def ball_grid(d: int, radius: float, step: float) -> np.ndarray:
    """Every k * step (k integer, per axis) with |k step| < radius."""
    kmax = int(radius / step) + 1
    ks = np.arange(-kmax, kmax + 1) * step
    pts = ks[:, None] if d == 1 else np.stack(np.meshgrid(ks, ks, indexing="ij"), -1).reshape(-1, 2)
    return pts[np.einsum("ij,ij->i", pts, pts) < radius * radius]


def lan_residual_closed_form(family: str, x: np.ndarray, u: np.ndarray, threshold: float) -> float:
    """sum_xi(u) - zeta_n(u) at theta0 = 0, b = 0.

    Gaussian families: the expansion is exact except for truncated scores,
    R(u) = u' sum over |x_i|/2 >= threshold of x_i. Laplace with the
    threshold above 1/2: R(u) = n u^2/2 - 2 sum_{0<X_i<u} (u - X_i), mirrored
    for u < 0.
    """
    if family == "laplace":
        t = float(u[0])
        if threshold <= 0.5:
            raise ValueError("the Laplace closed form needs an inactive truncation")
        y = x if t >= 0 else -x
        a = abs(t)
        inside = (y > 0) & (y < a)
        return len(x) * t * t / 2.0 - 2.0 * float(np.sum(a - y[inside]))
    xs = x.reshape(len(x), -1)
    dropped = np.linalg.norm(xs, axis=1) / 2.0 >= threshold
    return float(u @ xs[dropped].sum(axis=0))


def lan_sup(family: str, x: np.ndarray, radius: float, step: float, threshold: float) -> float:
    """max |R(u)| over the grid; for the Gaussian families R(u) = u'S is linear."""
    grid = ball_grid(2 if family == "gaussian2" else 1, radius, step)
    if grid.shape[0] == 0:
        return 0.0
    if family == "laplace":
        return max(abs(lan_residual_closed_form(family, x, u, threshold)) for u in grid)
    xs = x.reshape(len(x), -1)
    s = xs[np.linalg.norm(xs, axis=1) / 2.0 >= threshold].sum(axis=0)
    return float(np.max(np.abs(grid @ s)))


def lan_grid(result) -> list[str]:
    """Sup residuals (and Laplace pointwise residuals) against the closed form,
    recomputed on the benchmark's own samples and grid."""
    problems = []
    for rec in result:
        fam, x, n = rec["family"], rec["x"], rec["n"]
        tol = 1e-9 * n
        want = lan_sup(fam, x, rec["radius"], rec["step"], rec["threshold"])
        if not abs(rec["sup"] - want) <= tol:
            problems.append(f"{fam} n={n}: sup residual {rec['sup']:.10g} against {want:.10g}")
        for u, got in rec["pointwise"]:
            want = lan_residual_closed_form(fam, x, u, rec["threshold"])
            if not abs(got - want) <= tol:
                problems.append(f"{fam} n={n} u={u}: residual {got:.10g} against {want:.10g}")
    return problems
