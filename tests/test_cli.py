"""End-to-end CLI tests: each subcommand run in process against tiny budgets,
plus config validation, manifest reruns, and the report validator."""

import importlib
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modev
from modev import PriorSpec, RegionSpec, get_family
from modev import cli
from modev.cli import _CURVE_HEADER, _RUNNERS, _build_event, main
from modev.config import load_config


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def run(tmp_path, command, cfg, out="out", extra=()):
    cfg_path = write_config(tmp_path, f"{command}.json", cfg)
    out_dir = tmp_path / out
    rc = main([command, "--config", cfg_path, "--out", str(out_dir), "--workers", "1", *extra])
    return rc, out_dir


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# subcommand smoke runs
# ---------------------------------------------------------------------------


def test_check_conditions_writes_passing_report(tmp_path):
    rc, out = run(
        tmp_path,
        "check-conditions",
        {"family": "gaussian", "theta0": [0.0], "checks": ["dqm", "a0", "moment_b", "loss"]},
    )
    assert rc == 0
    reports = json.loads((out / "conditions.json").read_text(encoding="utf-8"))
    assert [r["condition"] for r in reports] == ["DQM", "A0", "B", "LOSS"]
    assert all(r["verdict"] == "pass" for r in reports)
    man = read_manifest(out)
    assert man["command"] == "check-conditions"
    assert man["artifacts"] == ["conditions.json"]


def test_lan_check_reports_vanishing_residual(tmp_path):
    rc, out = run(
        tmp_path,
        "lan-check",
        {"family": "gaussian", "n_values": [64, 128], "u_multipliers": [0.5, 1.0], "radius": 1.0},
    )
    assert rc == 0
    lines = (out / "lan_check.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].split(",")[:2] == ["n", "u_n"]
    assert lines[0].split(",")[-1] == "residual"
    # the quadratic expansion is exact for this family
    assert all(abs(float(line.split(",")[-1])) < 1e-10 for line in lines[1:])
    sup_lines = (out / "lan_sup.csv").read_text(encoding="utf-8").splitlines()
    assert sup_lines[0] == "n,u_n,sup_residual,normalized_sup"
    assert len(sup_lines) == 3


def test_ldp_curve_and_manifest_rerun_byte_identical(tmp_path):
    cfg = {
        "family": "gaussian",
        "event": "mle",
        "schedule": {"n_values": [64, 256]},
        "budget": {"n_reps": 500, "min_reps": 100},
        "seed": 7,
    }
    rc, out = run(tmp_path, "ldp-curve", cfg)
    assert rc == 0
    csv1 = (out / "ldp_curve.csv").read_bytes()
    assert csv1.decode("utf-8").splitlines()[0] == _CURVE_HEADER

    out2 = tmp_path / "rerun"
    rc2 = main([
        "ldp-curve", "--config", str(out / "manifest.json"),
        "--out", str(out2), "--workers", "1",
    ])
    assert rc2 == 0
    assert (out2 / "ldp_curve.csv").read_bytes() == csv1


def test_worker_flag_does_not_change_artifacts(tmp_path):
    cfg = {
        "family": "gaussian",
        "event": "mle",
        "schedule": {"n_values": [4096]},  # several chunks per point at this size
        "budget": {"n_reps": 2000, "min_reps": 500},
        "seed": 3,
    }
    _, out1 = run(tmp_path, "ldp-curve", cfg, out="w1")
    cfg_path = write_config(tmp_path, "w3.json", cfg)
    rc = main(["ldp-curve", "--config", cfg_path, "--out", str(tmp_path / "w3"), "--workers", "3"])
    assert rc == 0
    assert (tmp_path / "w3" / "ldp_curve.csv").read_bytes() == (out1 / "ldp_curve.csv").read_bytes()


def test_worker_flag_does_not_change_pilot_tilted_artifacts(tmp_path):
    # Laplace couplings pick their tilt on the pilot ladder, whose rungs run
    # one at a time in this process whatever the worker count
    cfg = {
        "family": "laplace", "delta": 0.125, "seed": 3,
        "schedule": {"n_values": [65, 257]}, "budget": {"n_reps": 300, "min_reps": 100},
    }
    _, out1 = run(tmp_path, "equivalence", cfg, out="w1")
    cfg_path = write_config(tmp_path, "w3.json", cfg)
    out3 = tmp_path / "w3"
    assert main(["equivalence", "--config", cfg_path, "--out", str(out3), "--workers", "3"]) == 0
    csvs = sorted(p.name for p in out1.glob("equivalence_*.csv"))
    assert len(csvs) == 3
    assert "tilted(pilot-b=1)" in (out1 / "equivalence_lr_vs_wald.csv").read_text(encoding="utf-8")
    for name in csvs:
        assert (out3 / name).read_bytes() == (out1 / name).read_bytes()


def test_equivalence_writes_one_curve_per_coupling(tmp_path):
    rc, out = run(
        tmp_path,
        "equivalence",
        {"family": "gaussian", "schedule": {"n_values": [64]},
         "budget": {"n_reps": 300, "min_reps": 100}},
    )
    assert rc == 0
    names = sorted(p.name for p in out.glob("equivalence_*.csv"))
    assert names == [
        "equivalence_lr_vs_psi2.csv",
        "equivalence_lr_vs_wald.csv",
        "equivalence_mle_vs_psi.csv",
    ]
    assert read_manifest(out)["artifacts"] == names


def test_bahadur_sweep_exact_curve(tmp_path):
    rc, out = run(
        tmp_path,
        "bahadur-sweep",
        {"family": "bernoulli", "theta0": [0.5], "u_values": [0.3], "n_large": 1000,
         "method": "exact"},
    )
    assert rc == 0
    lines = (out / "bahadur_u0.3.csv").read_text(encoding="utf-8").splitlines()
    rates = [float(line.split(",")[5]) for line in lines[1:]]
    assert len(rates) >= 3
    assert rates[-1] < rates[0]


def test_posterior_concentration_writes_curve_and_grid(tmp_path):
    rc, out = run(
        tmp_path,
        "posterior-concentration",
        {"family": "gaussian",
         "region": {"shape": "half_space", "a": [1.0], "c": 0.5},
         "schedule": {"n_values": [64, 256]},
         "budget": {"n_reps": 500, "min_reps": 100},
         "resolution": 128, "grid_dump_resolution": 64},
    )
    assert rc == 0
    lines = (out / "posterior_concentration.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == _CURVE_HEADER
    assert (out / "posterior_grid.txt").stat().st_size > 0
    assert set(read_manifest(out)["artifacts"]) == {
        "posterior_concentration.csv", "posterior_grid.txt",
    }


# ---------------------------------------------------------------------------
# report validation
# ---------------------------------------------------------------------------


def test_report_summarizes_curves(tmp_path):
    _, out = run(
        tmp_path,
        "ldp-curve",
        {"family": "gaussian", "schedule": {"n_values": [64, 256]},
         "budget": {"n_reps": 500, "min_reps": 100}, "seed": 7},
    )
    rc, rep_out = run(tmp_path, "report", {"in_dir": str(out)}, out="rep")
    assert rc == 0
    report = json.loads((rep_out / "report.json").read_text(encoding="utf-8"))
    assert report["ok"] is True
    assert report["issues"] == []
    (curve,) = report["curves"]
    assert curve["file"] == "ldp_curve.csv"
    assert curve["final_n"] == 256
    assert np.isfinite(curve["final_relative_gap"])
    assert report["source_manifest"]["command"] == "ldp-curve"


def test_report_flags_malformed_rows(tmp_path):
    _, out = run(
        tmp_path,
        "ldp-curve",
        {"family": "gaussian", "schedule": {"n_values": [64, 256]},
         "budget": {"n_reps": 500, "min_reps": 100}, "seed": 7},
    )
    csv = out / "ldp_curve.csv"
    csv.write_text(csv.read_text(encoding="utf-8") + "64,oops\n", encoding="utf-8")
    rc, rep_out = run(tmp_path, "report", {"in_dir": str(out)}, out="rep")
    assert rc == 0
    report = json.loads((rep_out / "report.json").read_text(encoding="utf-8"))
    assert report["ok"] is False
    (issue,) = report["issues"]
    assert issue["file"] == "ldp_curve.csv"
    assert issue["problem"] == "expected 7 fields, found 2"


def test_report_refuses_empty_directory(tmp_path):
    (tmp_path / "empty").mkdir()
    rc, _ = run(tmp_path, "report", {"in_dir": str(tmp_path / "empty")}, out="rep")
    assert rc == 1


# ---------------------------------------------------------------------------
# config errors and flags
# ---------------------------------------------------------------------------


def test_unknown_config_key_is_rejected_by_dotted_path(tmp_path, caplog):
    cfg = {"family": "gaussian", "schedule": {"warp": 1}}
    with caplog.at_level(logging.ERROR, logger="modev"):
        rc, _ = run(tmp_path, "ldp-curve", cfg)
    assert rc == 2
    assert "unknown config key 'schedule.warp'" in caplog.text


def test_manifest_for_wrong_command_is_rejected(tmp_path):
    _, out = run(
        tmp_path,
        "ldp-curve",
        {"family": "gaussian", "schedule": {"n_values": [64, 256]},
         "budget": {"n_reps": 500, "min_reps": 100}},
    )
    rc = main([
        "equivalence", "--config", str(out / "manifest.json"),
        "--out", str(tmp_path / "x"), "--workers", "1",
    ])
    assert rc == 2


def test_v1_manifest_is_rejected_with_the_rng_contract(tmp_path):
    # v1 manifests were written when every replication owned a generator; a
    # rerun under chunk streams would not reproduce them, so they are refused
    _, out = run(
        tmp_path,
        "ldp-curve",
        {"family": "gaussian", "schedule": {"n_values": [64, 256]},
         "budget": {"n_reps": 500, "min_reps": 100}},
    )
    manifest = read_manifest(out)
    assert manifest["schema"] == "modev.manifest.v4"
    manifest["schema"] = "modev.manifest.v1"
    old = write_config(tmp_path, "old_manifest.json", manifest)
    with pytest.raises(modev.ConfigError, match=r"modev\.manifest\.v1.*RNG"):
        load_config(old, "ldp-curve")
    rc = main(["ldp-curve", "--config", old, "--out", str(tmp_path / "x"), "--workers", "1"])
    assert rc == 2
    assert not (tmp_path / "x" / "ldp_curve.csv").exists()


def test_v2_manifest_is_rejected_with_the_laplace_draws(tmp_path):
    # v2 manifests drew Laplace replications as full samples; v3 draws window
    # samples, so a v2 Laplace run would not reproduce
    _, out = run(
        tmp_path,
        "ldp-curve",
        {"family": "laplace", "schedule": {"n_values": [65]},
         "budget": {"n_reps": 200, "min_reps": 100}},
    )
    manifest = read_manifest(out)
    manifest["schema"] = "modev.manifest.v2"
    old = write_config(tmp_path, "old_manifest.json", manifest)
    with pytest.raises(modev.ConfigError, match=r"modev\.manifest\.v2.*Laplace.*RNG"):
        load_config(old, "ldp-curve")
    rc = main(["ldp-curve", "--config", old, "--out", str(tmp_path / "x"), "--workers", "1"])
    assert rc == 2
    assert not (tmp_path / "x" / "ldp_curve.csv").exists()


def test_v3_manifest_is_rejected_with_the_psi_draws(tmp_path):
    # v3 manifests drew Gaussian psi replications as full samples; v4 draws
    # the statistic and a truncated stratum, so a v3 psi run would not reproduce
    _, out = run(
        tmp_path,
        "ldp-curve",
        {"family": "gaussian", "event": "psi", "schedule": {"n_values": [64]},
         "budget": {"n_reps": 200, "min_reps": 100}},
    )
    manifest = read_manifest(out)
    manifest["schema"] = "modev.manifest.v3"
    old = write_config(tmp_path, "old_manifest.json", manifest)
    with pytest.raises(modev.ConfigError, match=r"modev\.manifest\.v3.*Gaussian psi.*RNG"):
        load_config(old, "ldp-curve")
    rc = main(["ldp-curve", "--config", old, "--out", str(tmp_path / "x"), "--workers", "1"])
    assert rc == 2
    assert not (tmp_path / "x" / "ldp_curve.csv").exists()


@pytest.mark.parametrize("region, recorded", [
    ({"shape": "box", "d": 1, "lo": [1.0], "hi": [2.0]}, {"shape", "d", "lo", "hi"}),
    ({"shape": "complement_ball", "d": 1, "r": 1.5}, {"shape", "d", "r"}),
    ({"shape": "complement_box", "d": 1, "lo": [-1.0], "hi": [1.0]}, {"shape", "d", "lo", "hi"}),
    ({"shape": "half_space", "c": 0.5}, {"shape", "a", "c"}),
    (None, {"shape", "a", "c"}),
])
def test_manifest_records_half_space_defaults_only_for_half_spaces(tmp_path, region, recorded):
    cfg = {"family": "gaussian", "method": "exact", "schedule": {"n_values": [64]}}
    if region is not None:
        cfg["region"] = region
    rc, out = run(tmp_path, "ldp-curve", cfg)
    assert rc == 0
    manifest = read_manifest(out)
    assert set(manifest["config"]["region"]) == recorded
    # the manifest reruns to the same curve
    rc = main(["ldp-curve", "--config", str(out / "manifest.json"), "--out",
               str(tmp_path / "again"), "--workers", "1"])
    assert rc == 0
    assert (tmp_path / "again" / "ldp_curve.csv").read_bytes() == (out / "ldp_curve.csv").read_bytes()


def test_seed_override_lands_in_manifest(tmp_path):
    rc, out = run(
        tmp_path,
        "ldp-curve",
        {"family": "gaussian", "schedule": {"n_values": [64, 256]},
         "budget": {"n_reps": 500, "min_reps": 100}, "seed": 7},
        extra=("--seed-override", "99"),
    )
    assert rc == 0
    man = read_manifest(out)
    assert man["seed"] == 99
    assert man["config"]["seed"] == 99


def test_rejects_nonpositive_workers(tmp_path):
    cfg_path = write_config(tmp_path, "w.json", {"family": "gaussian"})
    rc = main(["ldp-curve", "--config", cfg_path, "--out", str(tmp_path / "o"), "--workers", "0"])
    assert rc == 2


def test_one_parser_serves_every_call_in_a_process(tmp_path):
    assert cli.build_parser() is cli.build_parser()
    rc, conds = run(tmp_path, "check-conditions",
                    {"family": "gaussian", "theta0": [0.0], "checks": ["loss"]}, out="c")
    assert rc == 0
    rc, lan = run(tmp_path, "lan-check", {"family": "gaussian", "n_values": [64],
                                          "u_multipliers": [0.5], "radius": 1.0}, out="l")
    assert rc == 0
    assert read_manifest(conds)["artifacts"] == ["conditions.json"]
    assert read_manifest(lan)["artifacts"] == ["lan_check.csv", "lan_sup.csv"]


def test_default_workers_follow_the_affinity_mask_at_each_call(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setitem(_RUNNERS, "check-conditions",
                        lambda cfg, workers, out_dir: seen.append(workers) or [])
    cfg_path = write_config(tmp_path, "c.json", {"family": "gaussian", "checks": ["loss"]})
    argv = ["check-conditions", "--config", cfg_path, "--out", str(tmp_path / "o")]
    for cpus in (3, 5):
        monkeypatch.setattr(cli, "_usable_cpus", lambda cpus=cpus: cpus)
        assert main(argv) == 0
    assert main([*argv, "--workers", "2"]) == 0
    assert seen == [3, 5, 2]


def test_rejects_coarse_lan_grid(tmp_path):
    rc, _ = run(tmp_path, "lan-check", {"family": "gaussian", "grid_step_divisor": 10.0})
    assert rc == 2


def test_lan_check_rejects_nonpositive_eps(tmp_path, caplog):
    with caplog.at_level(logging.ERROR, logger="modev"):
        rc, out = run(tmp_path, "lan-check", {"family": "gaussian", "eps": 0.0})
    assert rc == 2
    assert "eps must be positive" in caplog.text
    assert not (out / "lan_check.csv").exists()


def test_psi_curve_with_nonpositive_eps_is_bad_input(tmp_path, caplog):
    cfg = {"family": "gaussian", "event": "psi", "eps": 0.0,
           "schedule": {"n_values": [64, 256]}, "budget": {"n_reps": 300, "min_reps": 100}}
    with caplog.at_level(logging.ERROR, logger="modev"):
        rc, out = run(tmp_path, "ldp-curve", cfg)
    assert rc == 1
    assert "eps must be positive" in caplog.text
    assert "unexpected failure" not in caplog.text
    assert not (out / "ldp_curve.csv").exists()


@pytest.mark.parametrize("budget, message", [
    ({"n_reps": 0, "min_reps": 0}, "n_reps must be at least 1"),
    ({"max_total_draws": float("inf")}, "cannot convert float infinity to integer"),
])
def test_unusable_budget_is_an_invalid_budget(tmp_path, caplog, budget, message):
    cfg = {"family": "gaussian", "schedule": {"n_values": [64, 256]}, "budget": budget}
    with caplog.at_level(logging.ERROR, logger="modev"):
        rc, out = run(tmp_path, "ldp-curve", cfg)
    assert rc == 2
    assert f"invalid budget: {message}" in caplog.text
    assert not (out / "ldp_curve.csv").exists()


def test_loss_weights_are_an_unknown_key(tmp_path, caplog):
    cfg = {"family": "gaussian", "event": "bayes", "loss": {"norm": "euclidean", "weights": [1.0]}}
    with caplog.at_level(logging.ERROR, logger="modev"):
        rc, _ = run(tmp_path, "ldp-curve", cfg)
    assert rc == 2
    assert "unknown config key 'loss.weights'" in caplog.text


def test_condition_exponents_checked_against_dimension_before_any_check(tmp_path):
    # beta1 = beta2 = 2 of check E do not exceed d = 2
    rc, out = run(
        tmp_path, "check-conditions",
        {"family": "gaussian2", "theta0": [0.0, 0.0], "checks": ["dqm", "e"],
         "e_beta1": 2.0, "e_beta2": 2.0},
    )
    assert rc == 2
    assert not (out / "conditions.json").exists()


def test_default_e_exponents_follow_the_dimension(tmp_path):
    # beta1 and beta2 default to d + 1: 3 on the plane, 2 on the line
    rc, out = run(
        tmp_path, "check-conditions",
        {"family": "gaussian2", "theta0": [0.0, 0.0], "checks": ["e"]},
    )
    assert rc == 0
    (report,) = json.loads((out / "conditions.json").read_text(encoding="utf-8"))
    assert report["condition"] == "E"
    assert report["parameters"]["beta1"] == report["parameters"]["beta2"] == 3.0
    assert read_manifest(out)["config"]["e_beta1"] == 3.0
    assert load_config(str(out / "manifest.json"), "check-conditions").e_beta2 == 3.0
    rc, out = run(tmp_path, "check-conditions", {"family": "gaussian", "checks": ["e"]}, out="o1")
    assert rc == 0
    assert read_manifest(out)["config"]["e_beta1"] == 2.0


def test_unsupported_bayes_loss_rejected_before_any_draw(tmp_path, monkeypatch):
    def no_draws(*args):
        raise AssertionError("a replication stream was opened")

    monkeypatch.setattr(modev.rarevent, "rep_rng", no_draws)
    cfg = {
        "family": "gaussian", "event": "bayes",
        "loss": {"kind": "table", "xs": [0.0, 1.0], "ys": [0.0, 1.0]},
        "schedule": {"n_values": [64, 256]}, "budget": {"n_reps": 300, "min_reps": 100},
    }
    rc, out = run(tmp_path, "ldp-curve", cfg)
    assert rc == 2
    assert not (out / "ldp_curve.csv").exists()


@pytest.mark.parametrize("command, event, artifact", [
    ("ldp-curve", "bayes", "ldp_curve.csv"),
    ("posterior-concentration", None, "posterior_concentration.csv"),
])
def test_planar_posterior_events_rejected_before_any_draw(tmp_path, monkeypatch, command, event,
                                                          artifact):
    streams = []
    monkeypatch.setattr(modev.rarevent, "rep_rng", lambda *args: streams.append(args))
    cfg = {
        "family": "gaussian2", "theta0": [0.0, 0.0],
        "region": {"shape": "half_space", "d": 2, "a": [0.6, 0.8], "c": 1.0},
        "schedule": {"n_values": [64, 256]}, "budget": {"n_reps": 300, "min_reps": 100},
    }
    if event is not None:
        cfg["event"] = event
    rc, out = run(tmp_path, command, cfg)
    assert rc == 2
    assert not (out / artifact).exists()
    assert streams == []


def test_missing_config_file(tmp_path):
    rc = main(["report", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert rc == 2


def _readme_section(start, stop):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text[text.index(start) + len(start) : text.index(stop)]


def test_names_in_readme_resolve():
    families = re.findall(r"`([^`]+)`", _readme_section("Families:", "Regions:"))
    assert families
    for name in families:
        get_family(name)
    shapes = re.findall(r"`([^`]+)`", _readme_section("Regions:", "Events:"))
    assert shapes
    for shape in shapes:
        RegionSpec(shape, d=1, a=[1.0], c=1.0, r=1.0, lo=[-1.0], hi=[1.0])
    events = re.findall(r"`([^`]+)`", _readme_section("Events:", "for the estimator"))
    assert all(isinstance(getattr(modev, name, None), type) for name in events)
    region = RegionSpec("half_space", d=1, a=[1.0], c=1.0)
    for kind in ("mle", "psi", "bayes", "posterior_mass"):
        event = _build_event(kind, region, PriorSpec.flat(), None, 64, 0.5)
        assert type(event).__name__ in events
    bullets = _readme_section("Subcommands:", "Configs are")
    subcommands = re.findall(r"^- `([a-z-]+)`:", bullets, re.M)
    assert sorted(subcommands) == sorted(_RUNNERS)
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lists = re.findall(r"live\s+in\s+`modev\.(\w+)`\s+\(([^)]*)\)", text)
    assert {module for module, _ in lists} >= {"conditions", "lan", "estimators"}
    for module, names in lists:
        names = re.findall(r"`(\w+)`", names)
        assert names
        for name in names:
            assert hasattr(importlib.import_module(f"modev.{module}"), name), (module, name)


def test_version_flag_exits_cleanly():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_cli_import_leaves_quadrature_and_root_finding_unloaded():
    # the condition checks integrate and refine roots with their own array code
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = ("import modev.cli, sys\n"
            "loaded = {'scipy.integrate', 'scipy.optimize'} & set(sys.modules)\n"
            "assert not loaded, loaded\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is most of a cold start; only the exact-tail hooks import it
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = "import modev.cli, sys; assert 'scipy.stats' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
