"""JSON experiment configs: strict validation, defaults, manifest round-trip.

Every config is a frozen dataclass mirroring its JSON shape.  Unknown keys
are rejected by dotted path, nested sections merge over defaults, and the
fully resolved dict that ends up in the run manifest reconstructs the same
config bit-for-bit, which is what makes manifest reruns reproducible.

A nested section (region, schedule, budget, prior, loss) takes exactly the
fields of its spec; build_section builds the spec from the resolved section,
and the spec converts and validates its own values.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from .conditions import _jsonable
from .errors import ConfigError, ModevError
from .estimators import LossSpec, PriorSpec
from .families import Box, ParametricFamily, family_names, get_family
from .rarevent import Budget, DeviationSchedule
from .regions import RegionSpec

# v2: Monte Carlo draws come from one RNG stream per chunk, and statistic
# events draw their sufficient statistic from its exact law (v1: one stream
# per replication, full samples).  v3: Laplace replications are drawn as
# window samples about their middle order statistics (v2: full samples), and
# complement boxes tilt toward every nearest face.  v4: Gaussian psi events
# draw the sufficient statistic, plus full samples conditioned on the
# truncation binding on streams of their own (v3: full samples), and a region
# other than a half-space no longer records the half-space defaults a and c.
# A manifest of an older schema no longer reproduces its run.
MANIFEST_SCHEMA = "modev.manifest.v4"
_OLD_SCHEMAS = {
    "modev.manifest.v1": "the per-replication RNG contract",
    "modev.manifest.v2": "full-sample Laplace draws",
    "modev.manifest.v3": "full-sample Gaussian psi draws",
}


def _reject_unknown(d: dict, allowed, path: str = "") -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"config section {path or '<root>'} must be an object")
    for k in d:
        if k not in allowed:
            raise ConfigError(f"unknown config key {path + k!r}")


# -- nested sections -----------------------------------------------------------

# Each nested section takes exactly its spec's fields; the dict holds the
# defaults a config section merges over (and its manifest records).
_SECTIONS = {
    "region": (RegionSpec, {"shape": "half_space", "a": [1.0], "c": 1.0}),
    "schedule": (
        DeviationSchedule, {"n_values": [256, 1024, 4096], "alpha": 0.25, "c": 1.0, "b": None}
    ),
    "budget": (Budget, asdict(Budget())),
    "prior": (PriorSpec, {"kind": "flat"}),
    "loss": (LossSpec, {"kind": "power", "p": 2.0, "norm": "euclidean"}),
}


def _allowed(name: str) -> list[str]:
    return [f.name for f in fields(_SECTIONS[name][0])]


def _default(name: str):
    return field(default_factory=lambda: dict(_SECTIONS[name][1]))


def _merged(name: str, v: Optional[dict]) -> dict:
    """A config section merged over its defaults; a region of another shape
    than the default half-space takes none of the half-space's a and c."""
    base = _SECTIONS[name][1]
    v = v or {}
    if name == "region" and v.get("shape", base["shape"]) != base["shape"]:
        base = {"shape": base["shape"]}
    return {**base, **v}


def build_section(name: str, d: dict):
    """The spec of a resolved nested section (region, schedule, budget, prior
    or loss); unknown keys and invalid values are ConfigErrors."""
    cls = _SECTIONS[name][0]
    _reject_unknown(d, _allowed(name), name + ".")
    try:
        return cls(**d)
    except (ModevError, ArithmeticError, TypeError, ValueError) as e:
        raise ConfigError(f"invalid {name}: {e}") from e


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
    region: dict = _default("region")
    schedule: dict = _default("schedule")
    budget: dict = _default("budget")
    method: str = "tilted"
    eps: float = 0.5
    prior: dict = _default("prior")
    loss: dict = _default("loss")
    resolution: int = 256
    threshold: float = 0.5


@dataclass(frozen=True)
class EquivalenceConfig:
    family: str = "laplace"
    theta0: tuple = (0.0,)
    seed: int = 0
    delta: float = 0.125
    schedule: dict = _default("schedule")
    budget: dict = _default("budget")
    method: str = "tilted"
    eps: float = 0.5


@dataclass(frozen=True)
class BahadurConfig:
    family: str = "bernoulli"
    theta0: tuple = (0.5,)
    seed: int = 0
    event: str = "mle"
    region: dict = _default("region")
    u_values: tuple = (0.3, 0.2, 0.1)
    n_large: int = 10_000
    budget: dict = _default("budget")
    method: str = "tilted"
    eps: float = 0.5


@dataclass(frozen=True)
class PosteriorConcentrationConfig:
    family: str = "gaussian"
    theta0: tuple = (0.0,)
    seed: int = 0
    region: dict = _default("region")
    threshold: float = 0.5
    prior: dict = _default("prior")
    resolution: int = 256
    schedule: dict = _default("schedule")
    budget: dict = _default("budget")
    method: str = "tilted"
    eps: float = 0.5
    grid_dump_resolution: int = 256


@dataclass(frozen=True)
class ReportConfig:
    in_dir: str = "."
    seed: int = 0  # unused, kept so every manifest records one


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
        if f.name in _SECTIONS:
            if v is not None:
                _reject_unknown(v, _allowed(f.name), f.name + ".")
            kw[f.name] = _merged(f.name, v)
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
    return {k: _jsonable(v) for k, v in asdict(cfg).items()}


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
