"""Command-line front end: experiment subcommands, CSV/JSON artifacts, manifests.

Every run resolves its config (defaults filled, unknown keys rejected),
executes, writes its artifacts plus a manifest.json recording the resolved
config, seed, and artifact list.  A manifest is itself accepted as --config,
and identical configs yield byte-identical artifacts for any --workers.
Logs go to stderr; artifact files carry no timestamps.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .conditions import (
    check_a0,
    check_c,
    check_d,
    check_dqm,
    check_e,
    check_exp_moment,
    check_loss,
    check_moment_b,
)
from .config import (
    MANIFEST_SCHEMA,
    BahadurConfig,
    ConditionsConfig,
    CurveConfig,
    EquivalenceConfig,
    LanCheckConfig,
    PosteriorConcentrationConfig,
    ReportConfig,
    build_section,
    config_to_dict,
    family_from_config,
    load_config,
    _theta0,
)
from .errors import ConfigError, EmptyDirError, ModevError
from .estimators import LossSpec, bayes_loss_supported, default_posterior_box, posterior_grid
from .families import Box, draw_sample
from .lan import TruncationPolicy, lan_residual, sup_lan_residual
from .rarevent import (
    BayesEvent,
    MleEvent,
    PosteriorMassEvent,
    PsiEvent,
    bahadur_sweep,
    equivalence_tail,
    ldp_curve,
)

log = logging.getLogger("modev")

_CURVE_HEADER = "n,u_n,method,p_hat,stderr_log,normalized_rate,target_rate"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_text(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    log.info("wrote %s", path)
    return path.name


def _curve_csv(curve) -> str:
    lines = [_CURVE_HEADER]
    for pt in curve.points:
        e = pt.estimate
        lines.append(
            ",".join(
                [
                    str(pt.n),
                    _fmt(pt.u_n),
                    e.method,
                    _fmt(e.p_hat),
                    _fmt(e.stderr_log),
                    _fmt(pt.normalized_rate),
                    _fmt(curve.target),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_manifest(out_dir: Path, command: str, cfg, artifacts: list[str]) -> None:
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "command": command,
        "version": __version__,
        "seed": int(getattr(cfg, "seed", 0)),
        "config": config_to_dict(cfg),
        "artifacts": sorted(artifacts),
    }
    _write_text(out_dir / "manifest.json", _json_text(manifest))


def _build_event(kind: str, region, prior, loss, resolution: int, threshold: float):
    if kind == "mle":
        return MleEvent(region)
    if kind == "psi":
        return PsiEvent(region)
    if kind == "bayes":
        return BayesEvent(region, prior, loss, resolution)
    if kind == "posterior_mass":
        return PosteriorMassEvent(region, threshold, prior, resolution)
    raise ConfigError(f"unknown event kind {kind!r}")


def _check_posterior_grid_dimension(fam, method: str) -> None:
    """Monte Carlo Bayes and posterior-mass events build one posterior grid per
    replication, in one dimension only; refuse others before any draw."""
    if method != "exact" and fam.d != 1:
        raise ConfigError(
            "Monte Carlo bayes and posterior_mass events need a one-dimensional family"
        )


# ---------------------------------------------------------------------------
# Subcommand runners
# ---------------------------------------------------------------------------


def run_check_conditions(cfg: ConditionsConfig, workers: int, out_dir: Path) -> list[str]:
    fam = family_from_config(cfg.family)
    theta0 = _theta0(cfg.theta0, fam)
    if "d" in cfg.checks and not cfg.d_m > fam.d:
        raise ConfigError(f"d_m must exceed the parameter dimension {fam.d}")
    if "e" in cfg.checks and not (cfg.e_beta1 > fam.d and cfg.e_beta2 > fam.d):
        raise ConfigError(f"e_beta1 and e_beta2 must exceed the parameter dimension {fam.d}")
    axes = [np.eye(fam.d)[i] for i in range(fam.d)]
    reports = []

    for name in cfg.checks:
        log.info("running condition check %s", name)
        if name == "dqm":
            grid = [m * e for m in cfg.dqm_tau_magnitudes for e in axes]
            rep = check_dqm(fam, theta0, grid)
        elif name == "a0":
            dom = fam.theta_domain
            pad = 1e-6 * dom.width()
            lo = np.maximum(theta0 - cfg.a0_compact_halfwidth, dom.lo + pad)
            hi = np.minimum(theta0 + cfg.a0_compact_halfwidth, dom.hi - pad)
            rep = check_a0(fam, Box(lo, hi), cfg.a0_delta)
        elif name == "moment_b":
            taus = [s * m * cfg.b_u_n * e for m in (0.5, 1.0, 1.5) for s in (1, -1) for e in axes]
            rep = check_moment_b(
                fam, theta0, cfg.b_u_n, cfg.b_eps, cfg.b_gamma_n, taus, bound=cfg.bound
            )
        elif name == "exp_moment":
            if cfg.exp_envelope == "abs":
                h = lambda x: np.linalg.norm(np.atleast_1d(x), axis=-1) if fam.obs_dim > 1 else np.abs(x)
            elif cfg.exp_envelope == "square":
                h = lambda x: np.sum(np.atleast_1d(x) ** 2, axis=-1) if fam.obs_dim > 1 else np.square(x)
            else:
                raise ConfigError(f"unknown exp_envelope {cfg.exp_envelope!r}")
            rep = check_exp_moment(fam, theta0, h, cfg.exp_gamma, bound=cfg.bound)
        elif name == "c":
            rep = check_c(
                fam, theta0, cfg.c_u_grid, cfg.c_gamma, cfg.c_lambda, cfg.c_eps, bound=cfg.bound
            )
        elif name == "d":
            rep = check_d(fam, cfg.d_m, bound=cfg.bound)
        elif name == "e":
            pairs = [(u * axes[0], v * axes[0]) for u, v in cfg.e_pairs]
            rep = check_e(
                fam, theta0, cfg.e_eps, cfg.e_beta1, cfg.e_beta2, pairs, bound=cfg.bound
            )
        elif name == "loss":
            rep = check_loss(
                LossSpec.power(cfg.loss_p), (1.5, 2.0, 3.0, 5.0), (0.1, 0.5, 1.0, 2.0)
            )
        else:
            raise ConfigError(f"unknown condition check {name!r}")
        reports.append(rep.to_json())

    return [_write_text(out_dir / "conditions.json", _json_text(reports))]


def run_lan_check(cfg: LanCheckConfig, workers: int, out_dir: Path) -> list[str]:
    fam = family_from_config(cfg.family)
    theta0 = _theta0(cfg.theta0, fam)
    b = np.atleast_1d(np.asarray(cfg.b, dtype=float))
    if b.size != fam.d:
        raise ConfigError(f"b has dimension {b.size}, family {fam.name} needs {fam.d}")
    if cfg.grid_step_divisor < 20.0:
        raise ConfigError("grid_step_divisor must be at least 20 (grid step <= u_n/20)")
    if not cfg.eps > 0:
        raise ConfigError("eps must be positive")
    e1 = np.eye(fam.d)[0]
    psi_cols = ",".join(f"psi_{k + 1}" for k in range(fam.d))
    rows = [f"n,u_n,eps,b,u,sum_xi,zeta,{psi_cols},residual"]
    sup_rows = ["n,u_n,sup_residual,normalized_sup"]

    for i, n in enumerate(cfg.n_values):
        u_n = cfg.c * float(n) ** (-cfg.alpha)
        theta_gen = theta0 + u_n * b
        sample = draw_sample(fam, theta_gen, int(n), cfg.seed * 1_000_003 + i)
        policy = TruncationPolicy(cfg.eps, u_n)
        for m in cfg.u_multipliers:
            u_vec = m * u_n * e1
            ld = lan_residual(fam, sample, theta0, b, u_vec, policy)
            rows.append(
                ",".join(
                    [str(n), _fmt(u_n), _fmt(cfg.eps), _fmt(b[0]), _fmt(u_vec[0]),
                     _fmt(ld.sum_xi), _fmt(ld.zeta)]
                    + [_fmt(p) for p in ld.psi]
                    + [_fmt(ld.residual)]
                )
            )
        sup = sup_lan_residual(
            fam, sample, theta0, b, cfg.radius, u_n, policy, u_n / cfg.grid_step_divisor
        )
        sup_rows.append(
            ",".join([str(n), _fmt(u_n), _fmt(sup), _fmt(sup / (n * u_n**2))])
        )
        log.info("lan-check n=%d: sup residual %.4g", n, sup)

    return [
        _write_text(out_dir / "lan_check.csv", "\n".join(rows) + "\n"),
        _write_text(out_dir / "lan_sup.csv", "\n".join(sup_rows) + "\n"),
    ]


def run_ldp_curve(cfg: CurveConfig, workers: int, out_dir: Path) -> list[str]:
    fam = family_from_config(cfg.family)
    theta0 = _theta0(cfg.theta0, fam)
    region = build_section("region", cfg.region)
    loss = build_section("loss", cfg.loss)
    if cfg.event == "bayes" and not bayes_loss_supported(loss, fam.d):
        raise ConfigError(
            "bayes events need squared loss (euclidean norm when d > 1)"
            " or absolute loss in one dimension"
        )
    if cfg.event in ("bayes", "posterior_mass"):
        _check_posterior_grid_dimension(fam, cfg.method)
    event = _build_event(
        cfg.event, region, build_section("prior", cfg.prior), loss, cfg.resolution, cfg.threshold
    )
    curve = ldp_curve(
        event, fam, theta0, build_section("schedule", cfg.schedule),
        build_section("budget", cfg.budget), method=cfg.method, seed=cfg.seed,
        workers=workers, eps=cfg.eps, label=cfg.event,
    )
    return [_write_text(out_dir / "ldp_curve.csv", _curve_csv(curve))]


def run_equivalence(cfg: EquivalenceConfig, workers: int, out_dir: Path) -> list[str]:
    fam = family_from_config(cfg.family)
    theta0 = _theta0(cfg.theta0, fam)
    curves = equivalence_tail(
        fam, theta0, build_section("schedule", cfg.schedule), cfg.delta,
        build_section("budget", cfg.budget), method=cfg.method, seed=cfg.seed,
        workers=workers, eps=cfg.eps,
    )
    return [
        _write_text(out_dir / f"equivalence_{kind}.csv", _curve_csv(curve))
        for kind, curve in sorted(curves.items())
    ]


def run_bahadur(cfg: BahadurConfig, workers: int, out_dir: Path) -> list[str]:
    fam = family_from_config(cfg.family)
    theta0 = _theta0(cfg.theta0, fam)
    region = build_section("region", cfg.region)
    if cfg.event not in ("mle", "psi"):
        raise ConfigError("bahadur-sweep supports mle or psi events")
    event = MleEvent(region) if cfg.event == "mle" else PsiEvent(region)
    curves = bahadur_sweep(
        event, fam, theta0, cfg.u_values, cfg.n_large, build_section("budget", cfg.budget),
        method=cfg.method, seed=cfg.seed, workers=workers, eps=cfg.eps,
    )
    artifacts = []
    for curve in curves:
        stem = curve.label.replace("=", "")  # "u=0.3" -> "u0.3"
        artifacts.append(_write_text(out_dir / f"bahadur_{stem}.csv", _curve_csv(curve)))
    return artifacts


def run_posterior_concentration(
    cfg: PosteriorConcentrationConfig, workers: int, out_dir: Path
) -> list[str]:
    fam = family_from_config(cfg.family)
    theta0 = _theta0(cfg.theta0, fam)
    region = build_section("region", cfg.region)
    prior = build_section("prior", cfg.prior)
    schedule = build_section("schedule", cfg.schedule)
    _check_posterior_grid_dimension(fam, cfg.method)
    event = PosteriorMassEvent(region, cfg.threshold, prior, cfg.resolution)
    curve = ldp_curve(
        event, fam, theta0, schedule, build_section("budget", cfg.budget),
        method=cfg.method, seed=cfg.seed, workers=workers, eps=cfg.eps,
        label="posterior_mass",
    )
    artifacts = [_write_text(out_dir / "posterior_concentration.csv", _curve_csv(curve))]

    # one representative posterior grid dump at the largest schedule point
    n = max(schedule.n_values)
    u_n = schedule.u_of(n)
    b = schedule.b if schedule.b is not None else np.zeros(fam.d)
    sample = draw_sample(fam, theta0 + u_n * b, n, cfg.seed * 1_000_003 + 777)
    pilot = fam.mle_batch(sample.observations[None])[0]
    box = default_posterior_box(fam, pilot, n, u_n)
    post = posterior_grid(sample, fam, prior, box, max(cfg.grid_dump_resolution, 64))
    artifacts.append(_write_text(out_dir / "posterior_grid.txt", post.dump_text()))
    return artifacts


def run_report(cfg: ReportConfig, workers: int, out_dir: Path) -> list[str]:
    in_dir = Path(cfg.in_dir)
    if not in_dir.is_dir():
        raise ConfigError(f"report in_dir is not a directory: {in_dir}")
    csv_paths = sorted(in_dir.glob("*.csv"))
    cond_path = in_dir / "conditions.json"
    man_path = in_dir / "manifest.json"
    if not csv_paths and not cond_path.exists() and not man_path.exists():
        raise EmptyDirError(f"no artifacts found in {in_dir}")

    issues, curves, others = [], [], []
    for path in csv_paths:
        lines = path.read_text(encoding="utf-8").splitlines()
        if not lines:
            issues.append({"file": path.name, "line": 0, "problem": "empty file"})
            continue
        header = lines[0].split(",")
        is_curve = lines[0] == _CURVE_HEADER
        parsed_rows = []
        for k, line in enumerate(lines[1:], start=2):
            cells = line.split(",")
            if len(cells) != len(header):
                issues.append(
                    {"file": path.name, "line": k,
                     "problem": f"expected {len(header)} fields, found {len(cells)}"}
                )
                continue
            if is_curve:
                try:
                    parsed_rows.append(
                        {
                            "n": int(cells[0]),
                            "normalized_rate": float(cells[5]),
                            "target_rate": float(cells[6]),
                        }
                    )
                except ValueError as e:
                    issues.append({"file": path.name, "line": k, "problem": str(e)})
        if is_curve and parsed_rows:
            final = parsed_rows[-1]
            target = final["target_rate"]
            rate = final["normalized_rate"]
            rel = abs(rate - target) / abs(target) if target and not math.isnan(target) else None
            curves.append(
                {
                    "file": path.name,
                    "n_points": len(parsed_rows),
                    "final_n": final["n"],
                    "final_normalized_rate": rate,
                    "target_rate": target,
                    "final_relative_gap": rel,
                }
            )
        elif not is_curve:
            others.append({"file": path.name, "rows": len(lines) - 1})

    conditions = []
    if cond_path.exists():
        try:
            data = json.loads(cond_path.read_text(encoding="utf-8"))
            for rep in data:
                conditions.append({"condition": rep.get("condition"), "verdict": rep.get("verdict")})
        except (json.JSONDecodeError, AttributeError) as e:
            issues.append({"file": cond_path.name, "line": 0, "problem": f"bad JSON: {e}"})

    source = None
    if man_path.exists():
        try:
            man = json.loads(man_path.read_text(encoding="utf-8"))
            source = {"command": man.get("command"), "version": man.get("version"),
                      "seed": man.get("seed")}
        except json.JSONDecodeError as e:
            issues.append({"file": man_path.name, "line": 0, "problem": f"bad JSON: {e}"})

    report = {
        "schema": "modev.report.v1",
        "source_manifest": source,
        "curves": curves,
        "other_csv": others,
        "conditions": conditions,
        "issues": issues,
        "ok": not issues,
    }
    return [_write_text(out_dir / "report.json", _json_text(report))]


_RUNNERS = {
    "check-conditions": run_check_conditions,
    "lan-check": run_lan_check,
    "ldp-curve": run_ldp_curve,
    "equivalence": run_equivalence,
    "bahadur-sweep": run_bahadur,
    "posterior-concentration": run_posterior_concentration,
    "report": run_report,
}

_HELP = {
    "check-conditions": "certify regularity conditions on a family, write conditions.json",
    "lan-check": "tabulate the quadratic log-likelihood expansion and its residual",
    "ldp-curve": "estimate deviation probabilities along a schedule, write a rate curve",
    "equivalence": "tail curves for the three estimator-coupling discrepancies",
    "bahadur-sweep": "fixed-u rate curves over n, one CSV per u",
    "posterior-concentration": "posterior mass deviation curve plus a grid dump",
    "report": "validate and summarize artifacts from earlier runs",
}


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, which taskset and
    cpusets narrow), or the host's count where the platform has no mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; --workers defaults to None,
    which main resolves to _usable_cpus() at each call."""
    parser = argparse.ArgumentParser(
        prog="modev",
        description="moderate-deviation estimators, condition checks, and rare-event curves",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in _HELP.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="JSON config (or a prior manifest.json)")
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            help="worker processes (default: the CPUs this process may run on;"
            " results do not depend on it)",
        )
        p.add_argument("--seed-override", type=int, default=None, help="replace the config seed")
        p.add_argument("--out", default=".", help="output directory (default current)")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.command, args.seed_override)
        workers = _usable_cpus() if args.workers is None else args.workers
        if workers < 1:
            raise ConfigError("--workers must be at least 1")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        artifacts = _RUNNERS[args.command](cfg, workers, out_dir)
        _write_manifest(out_dir, args.command, cfg, artifacts)
    except ConfigError as e:
        log.error("%s", e)
        return 2
    except ModevError as e:
        log.error("%s", e)
        return 1
    except Exception as e:  # keep tracebacks out of normal operation
        log.error("unexpected failure: %s: %s", type(e).__name__, e)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
