"""The three workloads: which modev operations a round runs, on which inputs.

A round is one fixed list of operations. Every input is a function of the
workload seed alone, so two rounds with the same seed do the same work and
produce the same artifacts; only their timings differ. An operation is one
CLI subcommand (run in-process through ``modev.cli.main``) or one library
call, and each carries the check that judges its output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from modev import SampleBatch, TruncationPolicy, get_family, lan

import checks

# Workload sizes: they set how long a round takes (README.md, "Workloads").
SUFFSTAT_REPS = 2_500
FULLSAMPLE_REPS = 2_000
FULLSAMPLE_WORKERS = 2
# samples per n in the sup-residual grids; a planar grid has ~5000 points
LAN_SAMPLES = {"gaussian": 16, "laplace": 16, "gaussian2": 1}
LAN_N = (256, 1024, 4096)
LAN_C = 2.0
LAN_EPS = 0.5
# a step of u_n/20.25 (below u_n/20) keeps every grid point off the
# boundary |u| = 2 u_n, so the benchmark's own grid has no rounding ties
LAN_STEP_DIVISOR = 20.25

HALF_SPACE = {"shape": "half_space", "d": 1, "a": [1.0], "c": 1.0}
MD_SCHEDULE = {"n_values": [400, 1600, 6400], "alpha": 0.25, "c": 1.0}
# odd n: the Laplace median then has a closed-form binomial tail
LAPLACE_SCHEDULE = {"n_values": [257, 1025, 4097], "alpha": 1.0 / 3.0, "c": 1.0}

THETA0 = {
    "gaussian": [0.0],
    "gaussian2": [0.0, 0.0],
    "bernoulli": [0.5],
    "exponential": [1.0],
    "laplace": [0.0],
}
CHECKS = ("dqm", "a0", "moment_b", "exp_moment", "c", "d", "e", "loss")
# Per-family condition settings. gaussian2 needs beta > 2 for check E (as in
# scripts/run_condition_audit.py); its A0 compact is narrowed and its D and
# A1/A2 envelopes are the smooth ones, so the planar tensor rule serves them
# instead of 2-d adaptive quadrature (26.6 s and 7.4 s per call; see README).
CONDITION_EXTRA = {
    "gaussian": {"a0_compact_halfwidth": 1.0},
    "laplace": {"a0_compact_halfwidth": 1.0},
    "gaussian2": {
        "e_beta1": 3.0,
        "e_beta2": 3.0,
        "a0_compact_halfwidth": 0.5,
        "d_m": 4.0,
        "exp_envelope": "square",
    },
}


@dataclass(frozen=True)
class Op:
    """One operation of a round.

    ``command`` names a CLI subcommand run on ``config``; when it is None,
    ``call(out_dir)`` is a library call whose return value goes to ``check``.
    ``check(result)`` returns the list of problems found in the output.
    ``known_fault`` names a program fault that makes this operation fail on
    every run, whatever the seed.
    """

    name: str
    check: Callable
    command: Optional[str] = None
    config: Optional[dict] = None
    workers: int = 1
    call: Optional[Callable] = None
    known_fault: Optional[str] = None


def _curve(name, seed, family, event, region, schedule, reps, check, workers=1, **extra):
    cfg = {
        "family": family,
        "theta0": THETA0[family],
        "seed": seed,
        "event": event,
        "region": region,
        "schedule": schedule,
        "budget": {"n_reps": reps, "min_reps": 100},
        **extra,
    }
    return Op(name, check, "ldp-curve", cfg, workers)


def mc_suffstat(seed: int) -> list[Op]:
    s = 1000 * seed
    # One dominant point. The complement-ball mixture is left out: its four
    # axis tilts miss the diagonal directions, so its estimates sit up to 8
    # reported stderr below the chi-square tail on some seeds (see README).
    diagonal = {"shape": "half_space", "d": 2, "a": [0.6, 0.8], "c": 1.0}
    return [
        _curve("gaussian-mle", s + 1, "gaussian", "mle", HALF_SPACE, MD_SCHEDULE,
               SUFFSTAT_REPS, checks.gaussian_half_space),
        _curve("gaussian-psi", s + 2, "gaussian", "psi", HALF_SPACE, MD_SCHEDULE,
               SUFFSTAT_REPS, checks.gaussian_half_space),
        _curve("bernoulli-mle", s + 3, "bernoulli", "mle", HALF_SPACE, MD_SCHEDULE,
               SUFFSTAT_REPS, checks.bernoulli_half_space),
        _curve("exponential-mle", s + 4, "exponential", "mle", HALF_SPACE, MD_SCHEDULE,
               SUFFSTAT_REPS, checks.exponential_half_space),
        Op("gaussian-posterior-mass", checks.gaussian_posterior_mass, "posterior-concentration", {
            "family": "gaussian", "theta0": THETA0["gaussian"], "seed": s + 5,
            "region": HALF_SPACE, "threshold": 0.5, "schedule": MD_SCHEDULE,
            "budget": {"n_reps": SUFFSTAT_REPS, "min_reps": 100},
        }),
        _curve("gaussian-bayes", s + 6, "gaussian", "bayes", HALF_SPACE, MD_SCHEDULE,
               SUFFSTAT_REPS, checks.gaussian_half_space, prior={"kind": "flat"}),
        _curve("gaussian2-mle", s + 7, "gaussian2", "mle", diagonal, MD_SCHEDULE,
               SUFFSTAT_REPS, checks.gaussian_half_space),
        Op("gaussian-bahadur", checks.gaussian_bahadur, "bahadur-sweep", {
            "family": "gaussian", "theta0": THETA0["gaussian"], "seed": s + 8,
            "event": "mle", "region": HALF_SPACE, "u_values": [0.3, 0.2],
            "n_large": 4000, "budget": {"n_reps": SUFFSTAT_REPS, "min_reps": 100},
        }),
    ]


def mc_fullsample(seed: int) -> list[Op]:
    s = 1000 * seed
    return [
        Op("laplace-equivalence", checks.laplace_equivalence, "equivalence", {
            "family": "laplace", "theta0": THETA0["laplace"], "seed": s + 1,
            "delta": 0.125, "schedule": LAPLACE_SCHEDULE,
            "budget": {"n_reps": FULLSAMPLE_REPS, "min_reps": 100},
        }, workers=FULLSAMPLE_WORKERS),
        _curve("laplace-mle", s + 2, "laplace", "mle", HALF_SPACE, LAPLACE_SCHEDULE,
               FULLSAMPLE_REPS, checks.laplace_median_tail, FULLSAMPLE_WORKERS),
    ]


def _lan_sup_grid(family: str, seed: int):
    """Sup residual grids over |u| < 2 u_n, u_n = n^(-1/3), on samples drawn
    here with numpy's own generator, plus pointwise residuals at four u."""

    def call(out_dir):
        fam = get_family(family)
        zero = np.zeros(fam.d)
        e1 = np.eye(fam.d)[0]
        records = []
        for n in LAN_N:
            u_n = n ** (-1.0 / 3.0)
            policy = TruncationPolicy(LAN_EPS, u_n)
            step = u_n / LAN_STEP_DIVISOR
            for j in range(LAN_SAMPLES[family]):
                rng = np.random.default_rng([seed, n, j])
                if family == "laplace":
                    x = rng.laplace(0.0, 1.0, n)
                else:
                    x = rng.standard_normal((n, fam.d) if fam.d > 1 else n)
                sample = SampleBatch(family, zero, n, x, seed)
                sup = lan.sup_lan_residual(fam, sample, zero, zero, LAN_C, u_n, policy, step)
                pointwise = []
                for m in (-1.5, -0.5, 0.5, 1.5):
                    u = m * u_n * e1
                    pointwise.append((u, lan.lan_residual(fam, sample, zero, zero, u, policy).residual))
                records.append({"family": family, "n": n, "x": x, "sup": sup, "pointwise": pointwise,
                                "radius": LAN_C * u_n, "step": step, "threshold": policy.threshold})
        return records

    return call


def audit_numerics(seed: int) -> list[Op]:
    ops = []
    for family in ("gaussian", "laplace", "bernoulli", "exponential", "gaussian2"):
        for check in CHECKS:
            cfg = {"family": family, "theta0": THETA0[family], "seed": seed, "checks": [check],
                   **CONDITION_EXTRA.get(family, {})}
            fault = KNOWN_FAULT if (family, check) == ("gaussian2", "moment_b") else None
            ops.append(Op(f"{family}-{check}", checks.conditions(family, check),
                          "check-conditions", cfg, known_fault=fault))
    for k, family in enumerate(("gaussian", "laplace", "gaussian2")):
        ops.append(Op(f"{family}-lan-sup", checks.lan_grid,
                      call=_lan_sup_grid(family, 1000 * seed + k)))
    return ops


KNOWN_FAULT = (
    "conditions._truncated_lr_moment integrates planar families along the"
    " diagonal x = (t, t): the gaussian2 B moments are ~1e-23 times too small"
)

WORKLOADS = {
    "mc-suffstat": mc_suffstat,
    "mc-fullsample": mc_fullsample,
    "audit-numerics": audit_numerics,
}
