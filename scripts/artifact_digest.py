#!/usr/bin/env python3
"""SHA-256 digests of the artifacts a fixed set of small CLI runs writes.

Each run goes through ``modev.cli.main`` in this process with one worker,
in a temporary directory, and every file it writes (the manifest included)
is printed as one line ``<sha256>  <subcommand>/<config>/<artifact>``.  The
configs are fixed, so two checkouts print the same lines exactly when their
artifacts are byte-identical.  To compare a change against its parent, run
the script from each checkout (copy it into one that lacks it) and diff the
two outputs:

    python3 scripts/artifact_digest.py > digest.txt

The ``src`` directory next to this script is put first on ``sys.path``, so
the digests are of the checkout the script sits in.  The whole set takes
well under a minute on one core.
"""

from __future__ import annotations

import hashlib
import json
import logging
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from modev.cli import main as cli_main  # noqa: E402

HALF = {"shape": "half_space", "d": 1, "a": [1.0], "c": 1.0}
SCHEDULE = {"n_values": [64, 256], "alpha": 0.25, "c": 1.0}
BUDGET = {"n_reps": 300, "min_reps": 100}
LAN = {"n_values": [64, 256], "u_multipliers": [0.5, 1.0, 2.0], "radius": 2.0}

# (subcommand, config name, config)
RUNS = [
    ("lan-check", "gaussian", {"family": "gaussian", "theta0": [0.0], **LAN}),
    ("lan-check", "laplace", {"family": "laplace", "theta0": [0.0], **LAN}),
    ("lan-check", "gaussian2", {"family": "gaussian2", "theta0": [0.0, 0.0], "b": [0.0, 0.0],
                                **LAN}),
]
# a shifted base theta0 + u_n b and a binding truncation: at eps = 0.1 the
# Gaussian cuts scores |x - theta0| / 2 >= 0.1 / u_n, and the Laplace score,
# |phi| = 1/2, is cut at n = 64 (threshold 0.4) and kept at n = 256 (0.63)
for _family in ("gaussian", "laplace"):
    RUNS.append(("lan-check", f"{_family}-shifted", {
        "family": _family, "theta0": [0.0], "b": [0.5], "eps": 0.1, **LAN}))
for _family, _theta0 in (("gaussian", [0.0]), ("bernoulli", [0.5]), ("exponential", [1.0]),
                         ("gaussian2", [0.0, 0.0])):
    RUNS.append(("equivalence", _family, {
        "family": _family, "theta0": _theta0, "seed": 3, "delta": 0.125,
        "schedule": SCHEDULE, "budget": BUDGET,
    }))
# Laplace has no sufficient statistic and its couplings pick their tilt on the
# pilot ladder; at odd n the median is a single order statistic
RUNS.append(("equivalence", "laplace", {
    "family": "laplace", "theta0": [0.0], "seed": 3, "delta": 0.125,
    "schedule": {**SCHEDULE, "n_values": [65, 257]}, "budget": BUDGET,
}))
for _name, _extra in (
    ("bayes-squared", {"event": "bayes", "loss": {"kind": "power", "p": 2.0}}),
    ("bayes-absolute", {"event": "bayes", "loss": {"kind": "power", "p": 1.0}}),
    ("bayes-linear", {"event": "bayes", "loss": {"kind": "linear"}}),
    ("psi", {"event": "psi"}),
):
    RUNS.append(("ldp-curve", _name, {
        "family": "gaussian", "theta0": [0.0], "seed": 5, "region": HALF,
        "schedule": SCHEDULE, "budget": BUDGET, **_extra,
    }))
# a region, schedule and budget off their defaults: a box, c = 1.5 with b = 0.1,
# and a draw cap that sets the replications to 60000 // (64 + 256) = 187
RUNS.append(("ldp-curve", "box-mle-capped", {
    "family": "gaussian", "theta0": [0.0], "seed": 5, "event": "mle",
    "region": {"shape": "box", "d": 1, "lo": [1.0], "hi": [2.0]},
    "schedule": {**SCHEDULE, "c": 1.5, "b": [0.1]},
    "budget": {**BUDGET, "max_total_draws": 60000},
}))
# Laplace window samples at even n: the median is the mean of the two middle
# order statistics, the Bayes event builds a posterior grid per replication,
# and psi counts the points above theta0
for _name, _extra in (
    ("laplace-mle-even", {"event": "mle"}),
    ("laplace-bayes", {"event": "bayes", "prior": {"kind": "flat"},
                       "loss": {"kind": "power", "p": 2.0}}),
    ("laplace-psi", {"event": "psi"}),
):
    RUNS.append(("ldp-curve", _name, {
        "family": "laplace", "theta0": [0.0], "seed": 5, "region": HALF,
        "schedule": SCHEDULE, "budget": BUDGET, **_extra,
    }))
# at n = 64, 256 the posterior sub-box is clipped to the parameter domain (0.01, 0.99)
RUNS.append(("ldp-curve", "bernoulli-bayes", {
    "family": "bernoulli", "theta0": [0.5], "seed": 5, "region": HALF, "event": "bayes",
    "prior": {"kind": "flat"}, "loss": {"kind": "power", "p": 2.0},
    "schedule": SCHEDULE, "budget": BUDGET,
}))
for _name, _prior in (("flat", {"kind": "flat"}),
                      ("gaussian-prior", {"kind": "gaussian", "mean": [0.1], "sd": 0.5})):
    RUNS.append(("posterior-concentration", _name, {
        "family": "gaussian", "theta0": [0.0], "seed": 11, "region": HALF, "prior": _prior,
        "schedule": SCHEDULE, "budget": BUDGET, "grid_dump_resolution": 64,
    }))
# the exact tail oracles: Bernoulli atom sums (psi with theta0 != 1/2 and an
# eps that leaves the truncation inactive at n = 64 and 256), the exponential
# Gamma tail, the Laplace median at odd n and the Gaussian posterior mass
for _name, _family, _theta0, _extra in (
    ("exact-bernoulli-mle", "bernoulli", [0.3], {"event": "mle"}),
    ("exact-bernoulli-psi", "bernoulli", [0.4], {"event": "psi", "eps": 1.0}),
    ("exact-exponential-mle", "exponential", [1.0], {"event": "mle"}),
    ("exact-laplace-mle-odd", "laplace", [0.0],
     {"event": "mle", "schedule": {**SCHEDULE, "n_values": [65, 257]}}),
):
    RUNS.append(("ldp-curve", _name, {
        "family": _family, "theta0": _theta0, "seed": 5, "region": HALF, "method": "exact",
        "schedule": SCHEDULE, "budget": BUDGET, **_extra,
    }))
# the Gaussian region tails of every shape (psi and flat-prior Bayes read the
# same half-space tail as the MLE) and the exponential Gamma tail below theta0
for _name, _family, _theta0, _extra in (
    ("exact-gaussian-psi", "gaussian", [0.0], {"event": "psi"}),
    ("exact-gaussian-bayes", "gaussian", [0.0], {
        "event": "bayes", "prior": {"kind": "flat"}, "loss": {"kind": "power", "p": 2.0}}),
    ("exact-gaussian-box", "gaussian", [0.0], {
        "event": "mle", "region": {"shape": "box", "d": 1, "lo": [1.0], "hi": [2.0]}}),
    ("exact-gaussian2-complement-ball", "gaussian2", [0.0, 0.0], {
        "event": "mle", "region": {"shape": "complement_ball", "d": 2, "r": 1.5}}),
    ("exact-gaussian2-complement-box", "gaussian2", [0.0, 0.0], {
        "event": "mle",
        "region": {"shape": "complement_box", "d": 2, "lo": [-1.0, -0.5], "hi": [1.0, 1.5]}}),
    ("exact-exponential-mle-below", "exponential", [1.0], {
        "event": "mle", "region": {**HALF, "a": [-1.0]}}),
):
    RUNS.append(("ldp-curve", _name, {
        "family": _family, "theta0": _theta0, "seed": 5, "region": HALF, "method": "exact",
        "schedule": SCHEDULE, "budget": BUDGET, **_extra,
    }))
# tilted sampling toward a complement ball mixes over its nearest points, one
# per signed axis; the exact run above draws nothing
RUNS.append(("ldp-curve", "gaussian2-complement-ball", {
    "family": "gaussian2", "theta0": [0.0, 0.0], "seed": 5, "event": "mle",
    "region": {"shape": "complement_ball", "d": 2, "r": 1.5},
    "schedule": SCHEDULE, "budget": BUDGET,
}))
RUNS.append(("posterior-concentration", "exact", {
    "family": "gaussian", "theta0": [0.0], "seed": 11, "region": HALF, "method": "exact",
    "schedule": SCHEDULE, "budget": BUDGET, "grid_dump_resolution": 64,
}))
# crude sampling passes the guard that predicts its probability from the exact
# tail; a near half-space gives it hits at this budget
RUNS.append(("ldp-curve", "crude-gaussian-mle", {
    "family": "gaussian", "theta0": [0.0], "seed": 5, "region": {**HALF, "c": 0.5},
    "event": "mle", "method": "crude", "schedule": SCHEDULE, "budget": BUDGET,
}))
# Gaussian psi on the statistic plus its truncated stratum: crude, where about
# a quarter of the samples at n = 64 are truncated, and tilted at eps = 0.2,
# where the stratum holds most of the replications
RUNS.append(("ldp-curve", "crude-gaussian-psi", {
    "family": "gaussian", "theta0": [0.0], "seed": 5, "region": {**HALF, "c": 0.5},
    "event": "psi", "method": "crude", "schedule": SCHEDULE, "budget": BUDGET,
}))
RUNS.append(("ldp-curve", "gaussian-psi-eps0.2", {
    "family": "gaussian", "theta0": [0.0], "seed": 5, "region": HALF, "event": "psi",
    "eps": 0.2, "schedule": SCHEDULE, "budget": BUDGET,
}))
# fixed-u curves, one per u, with the point indices 100000 j + i
RUNS.append(("bahadur-sweep", "bernoulli-mle", {
    "family": "bernoulli", "theta0": [0.5], "seed": 7, "event": "mle", "region": HALF,
    "u_values": [0.3, 0.2], "n_large": 1024, "budget": BUDGET,
}))
RUNS.append(("check-conditions", "bernoulli", {"family": "bernoulli", "theta0": [0.5]}))
# the truncated moments B and C1b on a half-line and a planar support
for _family, _theta0 in (("exponential", [1.0]), ("gaussian2", [0.0, 0.0])):
    RUNS.append(("check-conditions", _family, {
        "family": _family, "theta0": _theta0, "checks": ["moment_b", "c"],
    }))
# B and the gradient moment D on the 1-d location families
for _family in ("gaussian", "laplace"):
    RUNS.append(("check-conditions", _family, {
        "family": _family, "theta0": [0.0], "checks": ["moment_b", "d"],
    }))
# Hellinger separation A0 on small compacts; the exponential one reaches the
# domain edge theta = 0.1, where the density's scale is 10
for _family, _theta0 in (("gaussian", [0.0]), ("laplace", [0.0]), ("exponential", [0.5]),
                         ("gaussian2", [0.0, 0.0])):
    RUNS.append(("check-conditions", f"a0-{_family}", {
        "family": _family, "theta0": _theta0, "checks": ["a0"], "a0_compact_halfwidth": 0.5,
    }))
# DQM, A1/A2, D and E on the continuous families at their default configs;
# A0 is left out, so these lines stay fixed when only the A0 integrals move
for _family, _theta0 in (("gaussian", [0.0]), ("laplace", [0.0]), ("exponential", [1.0]),
                         ("gaussian2", [0.0, 0.0])):
    RUNS.append(("check-conditions", f"dqm-e-{_family}", {
        "family": _family, "theta0": _theta0, "checks": ["dqm", "exp_moment", "d", "e"],
    }))


def main() -> int:
    logging.disable(logging.INFO)
    warnings.simplefilter("ignore")  # degenerate-weight and overflow warnings are expected here
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for command, name, cfg in RUNS:
            run_dir = Path(tmp) / command / name
            run_dir.mkdir(parents=True)
            cfg_path = run_dir / "config.json"
            cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
            out = run_dir / "out"
            rc = cli_main([command, "--config", str(cfg_path), "--out", str(out), "--workers", "1"])
            if rc != 0:
                print(f"exit {rc}  {command}/{name}", flush=True)
                status = 1
                continue
            for path in sorted(out.iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {command}/{name}/{path.name}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
