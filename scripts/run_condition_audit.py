#!/usr/bin/env python3
"""Regularity-condition audit across the built-in families.

Runs every numeric condition check per family through the CLI (so each
family gets a conditions.json + manifest under --out/<family>) and prints
the verdict matrix.  The Laplace family is the interesting row: the kink
at the location parameter leaves the classical-derivative checks degraded
while the root-density conditions still pass.
"""

import argparse
import json
import sys
import warnings
from pathlib import Path

from modev.cli import main as cli_main

THETA0 = {
    "gaussian": [0.0],
    "gaussian2": [0.0, 0.0],
    "bernoulli": [0.5],
    "exponential": [1.0],
    "laplace": [0.0],
}

CONDITIONS = ("DQM", "A0", "B", "A1A2", "C1C2", "D", "E", "LOSS")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/conditions")
    ap.add_argument("--families", default=",".join(THETA0))
    args = ap.parse_args()

    matrix = {}
    for family in args.families.split(","):
        family = family.strip()
        out_dir = Path(args.out) / family
        out_dir.mkdir(parents=True, exist_ok=True)
        cfg_path = out_dir / "config.json"
        cfg = {"family": family, "theta0": THETA0[family]}
        cfg_path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # laplace D-check warns by design
            rc = cli_main(["check-conditions", "--config", str(cfg_path), "--out", str(out_dir)])
        if rc != 0:
            matrix[family] = {}
            continue
        reports = json.loads((out_dir / "conditions.json").read_text())
        matrix[family] = {r["condition"]: r["verdict"] for r in reports}

    width = max(len(f) for f in matrix)
    print("\n" + " " * width + "  " + "  ".join(f"{c:>6}" for c in CONDITIONS))
    for family, verdicts in matrix.items():
        cells = "  ".join(f"{verdicts.get(c, '-'):>6}" for c in CONDITIONS)
        print(f"{family:<{width}}  {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
