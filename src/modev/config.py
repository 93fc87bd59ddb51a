"""JSON experiment configs: strict validation, defaults, manifest round-trip.

Every config is a frozen dataclass mirroring its JSON shape.  Unknown keys
are rejected by dotted path, nested sections merge over defaults, and the
fully resolved dict that ends up in the run manifest reconstructs the same
config bit-for-bit, which is what makes manifest reruns reproducible.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import ConfigError
from .estimators import LossSpec, PriorSpec
from .families import Box, ParametricFamily, family_names, get_family
from .rarevent import Budget, DeviationSchedule
from .regions import RegionSpec

# v2: Monte Carlo draws come from one RNG stream per chunk, and statistic
# events draw their sufficient statistic from its exact law (v1: one stream
# per replication, full samples).  v3: Laplace replications are drawn as
# window samples about their middle order statistics (v2: full samples), and
# complement boxes tilt toward every nearest face.  A manifest of an older
# schema no longer reproduces its run.
MANIFEST_SCHEMA = "modev.manifest.v3"
_OLD_SCHEMAS = {
    "modev.manifest.v1": "the per-replication RNG contract",
    "modev.manifest.v2": "full-sample Laplace draws",
}


def _reject_unknown(d: dict, allowed, path: str = "") -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"config section {path or '<root>'} must be an object")
    for k in d:
        if k not in allowed:
            raise ConfigError(f"unknown config key {path + k!r}")


def _merge_section(raw: Optional[dict], defaults: dict, allowed, path: str) -> dict:
    if raw is None:
        return dict(defaults)
    _reject_unknown(raw, allowed, path)
    out = dict(defaults)
    out.update(raw)
    return out


# -- nested section builders -------------------------------------------------

_REGION_KEYS = ("shape", "d", "a", "c", "r", "lo", "hi")
_PRIOR_KEYS = ("kind", "mean", "sd")
_LOSS_KEYS = ("kind", "p", "norm", "weights", "xs", "ys")
_BUDGET_KEYS = ("n_reps", "max_total_draws", "min_reps")
_SCHEDULE_KEYS = ("n_values", "alpha", "c", "b")


def region_from_dict(d: dict, path: str = "region.") -> RegionSpec:
    _reject_unknown(d, _REGION_KEYS, path)
    if "shape" not in d:
        raise ConfigError(f"{path}shape is required")
    kw = dict(d)
    for key in ("a", "lo", "hi"):
        if key in kw and kw[key] is not None:
            kw[key] = np.asarray(kw[key], dtype=float)
    try:
        return RegionSpec(**kw)
    except Exception as e:
        raise ConfigError(f"invalid region: {e}") from e


def prior_from_dict(d: dict, path: str = "prior.") -> PriorSpec:
    _reject_unknown(d, _PRIOR_KEYS, path)
    kind = d.get("kind", "flat")
    try:
        if kind == "flat":
            return PriorSpec.flat()
        if kind == "gaussian":
            if "mean" not in d:
                raise ConfigError(f"{path}mean is required for a gaussian prior")
            return PriorSpec.gaussian(d["mean"], float(d.get("sd", 1.0)))
    except ConfigError:
        raise
    except Exception as e:
        raise ConfigError(f"invalid prior: {e}") from e
    raise ConfigError(f"unknown prior kind {kind!r}")


def loss_from_dict(d: dict, path: str = "loss.") -> LossSpec:
    _reject_unknown(d, _LOSS_KEYS, path)
    kind = d.get("kind", "power")
    norm = d.get("norm", "euclidean")
    weights = d.get("weights")
    try:
        if kind == "power":
            return LossSpec.power(float(d.get("p", 2.0)), norm=norm, weights=weights)
        if kind == "linear":
            return LossSpec.linear(norm=norm, weights=weights)
        if kind == "table":
            return LossSpec.table(d.get("xs"), d.get("ys"), norm=norm, weights=weights)
    except Exception as e:
        raise ConfigError(f"invalid loss: {e}") from e
    raise ConfigError(f"unknown loss kind {kind!r}")


def budget_from_dict(d: dict, path: str = "budget.") -> Budget:
    _reject_unknown(d, _BUDGET_KEYS, path)
    try:
        return Budget(
            n_reps=int(d.get("n_reps", 100_000)),
            max_total_draws=int(d.get("max_total_draws", 10**9)),
            min_reps=int(d.get("min_reps", 1000)),
        )
    except Exception as e:
        raise ConfigError(f"invalid budget: {e}") from e


def schedule_from_dict(d: dict, path: str = "schedule.") -> DeviationSchedule:
    _reject_unknown(d, _SCHEDULE_KEYS, path)
    if "n_values" not in d:
        raise ConfigError(f"{path}n_values is required")
    try:
        return DeviationSchedule(
            n_values=tuple(int(v) for v in d["n_values"]),
            alpha=float(d.get("alpha", 0.25)),
            c=float(d.get("c", 1.0)),
            b=d.get("b"),
        )
    except ConfigError:
        raise
    except Exception as e:
        raise ConfigError(f"invalid schedule: {e}") from e


def family_from_config(name: str) -> ParametricFamily:
    if name not in family_names():
        raise ConfigError(f"unknown family {name!r}; choose from {family_names()}")
    return get_family(name)


def _theta0(cfg_theta0, fam: ParametricFamily) -> np.ndarray:
    t = np.atleast_1d(np.asarray(cfg_theta0, dtype=float))
    if t.size != fam.d:
        raise ConfigError(f"theta0 has dimension {t.size}, family {fam.name} needs {fam.d}")
    if not fam.theta_domain.contains(t):
        raise ConfigError(f"theta0 {t.tolist()} outside the open domain of {fam.name}")
    return t


# -- command configs ----------------------------------------------------------

_DEFAULT_REGION = {"shape": "half_space", "a": [1.0], "c": 1.0}
_DEFAULT_SCHEDULE = {"n_values": [256, 1024, 4096], "alpha": 0.25, "c": 1.0, "b": None}
_DEFAULT_BUDGET = {"n_reps": 100_000, "max_total_draws": 10**9, "min_reps": 1000}
_DEFAULT_PRIOR = {"kind": "flat"}
_DEFAULT_LOSS = {"kind": "power", "p": 2.0, "norm": "euclidean"}


@dataclass(frozen=True)
class ConditionsConfig:
    family: str = "gaussian"
    theta0: tuple = (0.0,)
    seed: int = 0
    checks: tuple = ("dqm", "a0", "moment_b", "exp_moment", "c", "d", "e", "loss")
    dqm_tau_magnitudes: tuple = (1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1)
    a0_delta: float = 0.5
    a0_compact_halfwidth: float = 2.0
    b_u_n: float = 0.1
    b_eps: float = 0.5
    b_gamma_n: float = 1.5
    exp_envelope: str = "abs"
    exp_gamma: float = 0.1
    c_u_grid: tuple = (0.2, 0.1, 0.05, 0.02)
    c_gamma: float = 1.0
    c_lambda: float = 1.0
    c_eps: float = 0.5
    d_m: float = 3.0
    e_eps: float = 1e6
    # None resolves to the family's dimension plus one, the smallest integer
    # exponent check E accepts
    e_beta1: Optional[float] = None
    e_beta2: Optional[float] = None
    e_pairs: tuple = ((0.0, 0.1), (0.0, 0.05), (0.05, 0.1), (0.0, 0.2))
    loss_p: float = 2.0
    bound: float = 1e6

    def __post_init__(self):
        for name in ("e_beta1", "e_beta2"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, float(family_from_config(self.family).d + 1))


@dataclass(frozen=True)
class LanCheckConfig:
    family: str = "gaussian"
    theta0: tuple = (0.0,)
    seed: int = 0
    n_values: tuple = (256, 1024, 4096)
    alpha: float = 1.0 / 3.0
    c: float = 1.0
    b: tuple = (0.0,)
    eps: float = 0.5
    u_multipliers: tuple = (0.25, 0.5, 1.0, 1.5, 2.0)
    radius: float = 2.0
    grid_step_divisor: float = 20.0


@dataclass(frozen=True)
class CurveConfig:
    family: str = "gaussian"
    theta0: tuple = (0.0,)
    seed: int = 0
    event: str = "mle"
    region: dict = field(default_factory=lambda: dict(_DEFAULT_REGION))
    schedule: dict = field(default_factory=lambda: dict(_DEFAULT_SCHEDULE))
    budget: dict = field(default_factory=lambda: dict(_DEFAULT_BUDGET))
    method: str = "tilted"
    eps: float = 0.5
    prior: dict = field(default_factory=lambda: dict(_DEFAULT_PRIOR))
    loss: dict = field(default_factory=lambda: dict(_DEFAULT_LOSS))
    resolution: int = 256
    threshold: float = 0.5


@dataclass(frozen=True)
class EquivalenceConfig:
    family: str = "laplace"
    theta0: tuple = (0.0,)
    seed: int = 0
    delta: float = 0.125
    schedule: dict = field(default_factory=lambda: dict(_DEFAULT_SCHEDULE))
    budget: dict = field(default_factory=lambda: dict(_DEFAULT_BUDGET))
    method: str = "tilted"
    eps: float = 0.5


@dataclass(frozen=True)
class BahadurConfig:
    family: str = "bernoulli"
    theta0: tuple = (0.5,)
    seed: int = 0
    event: str = "mle"
    region: dict = field(default_factory=lambda: dict(_DEFAULT_REGION))
    u_values: tuple = (0.3, 0.2, 0.1)
    n_large: int = 10_000
    budget: dict = field(default_factory=lambda: dict(_DEFAULT_BUDGET))
    method: str = "tilted"
    eps: float = 0.5


@dataclass(frozen=True)
class PosteriorConcentrationConfig:
    family: str = "gaussian"
    theta0: tuple = (0.0,)
    seed: int = 0
    region: dict = field(default_factory=lambda: dict(_DEFAULT_REGION))
    threshold: float = 0.5
    prior: dict = field(default_factory=lambda: dict(_DEFAULT_PRIOR))
    resolution: int = 256
    schedule: dict = field(default_factory=lambda: dict(_DEFAULT_SCHEDULE))
    budget: dict = field(default_factory=lambda: dict(_DEFAULT_BUDGET))
    method: str = "tilted"
    eps: float = 0.5
    grid_dump_resolution: int = 256


@dataclass(frozen=True)
class ReportConfig:
    in_dir: str = "."
    seed: int = 0  # unused, kept so every manifest records one


_NESTED = {
    "region": (_REGION_KEYS, _DEFAULT_REGION),
    "schedule": (_SCHEDULE_KEYS, _DEFAULT_SCHEDULE),
    "budget": (_BUDGET_KEYS, _DEFAULT_BUDGET),
    "prior": (_PRIOR_KEYS, _DEFAULT_PRIOR),
    "loss": (_LOSS_KEYS, _DEFAULT_LOSS),
}


def config_from_dict(cls, raw: dict):
    """Build a command config, rejecting unknown keys by dotted path and
    merging nested sections over their defaults."""
    names = [f.name for f in fields(cls)]
    _reject_unknown(raw, names)
    kw = {}
    for f in fields(cls):
        if f.name not in raw:
            continue
        v = raw[f.name]
        if f.name in _NESTED:
            allowed, defaults = _NESTED[f.name]
            kw[f.name] = _merge_section(v, defaults, allowed, f.name + ".")
        elif isinstance(v, list):
            kw[f.name] = tuple(tuple(x) if isinstance(x, list) else x for x in v)
        else:
            kw[f.name] = v
    try:
        return cls(**kw)
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid config for {cls.__name__}: {e}") from e


def config_to_dict(cfg) -> dict:
    """JSON-ready resolved config; tuples become lists."""

    def conv(v):
        if isinstance(v, tuple):
            return [conv(x) for x in v]
        if isinstance(v, dict):
            return {k: conv(x) for k, x in v.items()}
        if isinstance(v, np.ndarray):
            return v.tolist()
        if isinstance(v, (np.floating, np.integer)):
            return v.item()
        return v

    return {k: conv(v) for k, v in asdict(cfg).items()}


COMMAND_CONFIGS = {
    "check-conditions": ConditionsConfig,
    "lan-check": LanCheckConfig,
    "ldp-curve": CurveConfig,
    "equivalence": EquivalenceConfig,
    "bahadur-sweep": BahadurConfig,
    "posterior-concentration": PosteriorConcentrationConfig,
    "report": ReportConfig,
}


def load_config(path: str, command: str, seed_override: Optional[int] = None):
    """Read a config (or a previous run's manifest) for a command."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")

    if raw.get("schema") in _OLD_SCHEMAS:
        raise ConfigError(
            f"manifest schema {raw['schema']} was written under"
            f" {_OLD_SCHEMAS[raw['schema']]}; {MANIFEST_SCHEMA} changed the RNG"
            " contract, so a rerun would not reproduce its artifacts (pass its config"
            " section as a config)"
        )
    if raw.get("schema") == MANIFEST_SCHEMA:
        man_cmd = raw.get("command")
        if man_cmd != command:
            raise ConfigError(
                f"manifest was produced by {man_cmd!r}, not {command!r}"
            )
        raw = raw.get("config", {})
        if not isinstance(raw, dict):
            raise ConfigError("manifest config section must be an object")

    cls = COMMAND_CONFIGS.get(command)
    if cls is None:
        raise ConfigError(f"unknown command {command!r}")
    if seed_override is not None and "seed" in {f.name for f in fields(cls)}:
        raw = dict(raw)
        raw["seed"] = int(seed_override)
    return config_from_dict(cls, raw)
