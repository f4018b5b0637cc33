"""JSON scenario configuration.

Configs are plain JSON with a fixed schema (documented in the README);
unknown keys are rejected with the offending path so typos fail loudly
instead of silently falling back to defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigError, ValidationError
from .models import CHAIN_VARIANTS, FAMILIES, FAMILY_FIELDS, ModelSpec, chain_spec
from .sweeps import check_sweep
from .trajectory import DEFAULT_STEPS


@dataclass(frozen=True)
class SweepConfig:
    parameter: str  # "N" or "gamma"
    values: tuple
    quantity: str
    path: str = "auto"


@dataclass(frozen=True)
class ScenarioConfig:
    spec: ModelSpec
    lam_t_max: float | None = None
    steps: int = DEFAULT_STEPS
    output_dir: str = "out"
    series: tuple[str, ...] = ()
    sweep: SweepConfig | None = None

    def __post_init__(self):
        if self.steps < 2:
            raise ConfigError("time.steps must be >= 2")


@dataclass(frozen=True)
class CapacityConfig:
    spec: ModelSpec
    beta_max_abs: float = 20.0
    points_per_branch: int = 200
    entropy_targets_bits: tuple[float, ...] = ()
    output_dir: str = "out"


def _require(mapping: dict, path: str, required: dict, optional: dict) -> dict:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(mapping) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(mapping)
    if missing:
        raise ConfigError(f"{path}: missing required keys {sorted(missing)}")
    out = dict(optional)
    out.update(mapping)
    return out


def _typed(value, types, path: str):
    """``value`` if it has one of ``types``; a JSON true/false is a bool only,
    never an int or a number."""
    types = types if isinstance(types, tuple) else (types,)
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        names = "/".join(t.__name__ for t in types)
        raise ConfigError(f"{path}: expected {names}, got {type(value).__name__}")
    return value


def _typed_list(value, types, path: str) -> tuple:
    """A JSON list whose every element has one of ``types``, as a tuple."""
    return tuple(_typed(x, types, f"{path}[{i}]") for i, x in enumerate(_typed(value, list, path)))


OUTPUT_SERIES = ("populations",)
# JSON types of the family keys of models.FAMILY_FIELDS; the list keys hold numbers.
KEY_TYPES = {"q": int, "r": int, "gamma": (int, float), "n_max": int, "normalize_coupling": bool}
LIST_KEYS = ("lambdas", "gammas")


def parse_model(raw: dict, path: str = "model") -> ModelSpec:
    """A ModelSpec from the model section: each family's own keys of
    ``models.FAMILY_FIELDS`` go to ModelSpec as given, so its defaults hold
    for the keys left out."""
    family_keys = {key for keys in FAMILY_FIELDS.values() for key in keys}
    _require(
        raw,
        path,
        required={"family": None, "N": None},
        optional=dict.fromkeys({"lam", "variant", *family_keys}),
    )
    family = _typed(raw["family"], str, f"{path}.family")
    if family not in FAMILIES:
        raise ConfigError(f"{path}.family: unknown family {family!r} (expected one of {FAMILIES})")
    # Model keys are ModelSpec fields, but N names n_cells and a chain's
    # variant stands for its couplings.
    own = {"family", "N", "lam", *FAMILY_FIELDS[family]}
    if family == "jw_chain":
        own.add("variant")
    foreign = sorted(set(raw) - own)
    if foreign:
        keys = ", ".join(f"{path}.{key}" for key in foreign)
        raise ConfigError(f"{keys}: not a key of the {family} family")
    n = _typed(raw["N"], int, f"{path}.N")
    given = {key: raw[key] for key in FAMILY_FIELDS[family] if key in raw}
    for key, value in given.items():
        if key in LIST_KEYS:
            given[key] = _typed_list(value, (int, float), f"{path}.{key}")
        elif not (key == "n_max" and value is None):  # null: the automatic cutoff
            _typed(value, KEY_TYPES[key], f"{path}.{key}")
    if "lam" in raw:
        given["lam"] = float(_typed(raw["lam"], (int, float), f"{path}.lam"))
    variant = raw.get("variant")
    if variant is not None:
        if _typed(variant, str, f"{path}.variant") not in CHAIN_VARIANTS:
            raise ConfigError(
                f"{path}.variant: unknown variant {variant!r} (expected one of {CHAIN_VARIANTS})"
            )
        if "lambdas" in given or "gammas" in given:
            raise ConfigError(f"{path}: give either variant or explicit couplings, not both")
    elif family == "jw_chain" and not {"lambdas", "gammas"} <= set(given):
        raise ConfigError(f"{path}: jw_chain needs a variant or lambdas+gammas lists")
    try:
        if variant is not None:
            return replace(chain_spec(variant, n), **given)
        return ModelSpec(family=family, n_cells=n, **given)
    except Exception as exc:  # model invariant violations carry the config path
        raise ConfigError(f"{path}: {exc}") from exc


def parse_scenario(raw: dict) -> ScenarioConfig:
    raw = _require(
        raw,
        "config",
        required={"model": None},
        optional={
            "time": {},
            "sweep": None,
            "outputs": {},
        },
    )
    spec = parse_model(raw["model"])
    time_cfg = _require(
        raw["time"], "time", required={}, optional={"lam_t_max": None, "steps": DEFAULT_STEPS}
    )
    outputs = _require(
        raw["outputs"], "outputs", required={}, optional={"directory": "out", "series": []}
    )
    steps = _typed(time_cfg["steps"], int, "time.steps")
    series = _typed_list(outputs["series"], str, "outputs.series")
    unknown = [name for name in series if name not in OUTPUT_SERIES]
    if unknown:
        raise ConfigError(f"outputs.series: unknown series {unknown} (expected any of {OUTPUT_SERIES})")
    sweep = None
    if raw["sweep"] is not None:
        sweep_raw = _require(
            raw["sweep"],
            "sweep",
            required={"values": None, "quantity": None},
            optional={"parameter": "N", "path": "auto"},
        )
        values = _typed_list(
            sweep_raw["values"], int if sweep_raw["parameter"] == "N" else (int, float), "sweep.values"
        )
        try:
            check_sweep(
                spec, sweep_raw["parameter"], values, sweep_raw["quantity"], sweep_raw["path"], steps
            )
        except ValidationError as exc:
            raise ConfigError(str(exc)) from exc
        sweep = SweepConfig(
            parameter=sweep_raw["parameter"],
            values=values,
            quantity=sweep_raw["quantity"],
            path=sweep_raw["path"],
        )
    lam_t_max = time_cfg["lam_t_max"]
    if lam_t_max is not None:
        lam_t_max = float(_typed(lam_t_max, (int, float), "time.lam_t_max"))
    return ScenarioConfig(
        spec=spec,
        lam_t_max=lam_t_max,
        steps=steps,
        output_dir=_typed(outputs["directory"], str, "outputs.directory"),
        series=series,
        sweep=sweep,
    )


def parse_capacity(raw: dict) -> CapacityConfig:
    raw = _require(
        raw,
        "config",
        required={"model": None},
        optional={"beta": {}, "entropy_targets_bits": [], "outputs": {}},
    )
    spec = parse_model(raw["model"])
    beta = _require(
        raw["beta"], "beta", required={}, optional={"max_abs": 20.0, "points_per_branch": 200}
    )
    outputs = _require(raw["outputs"], "outputs", required={}, optional={"directory": "out"})
    beta_max_abs = float(_typed(beta["max_abs"], (int, float), "beta.max_abs"))
    if not beta_max_abs > 0:
        raise ConfigError(f"beta.max_abs: must be positive, got {beta_max_abs}")
    points_per_branch = _typed(beta["points_per_branch"], int, "beta.points_per_branch")
    if points_per_branch < 1:
        raise ConfigError(f"beta.points_per_branch: must be >= 1, got {points_per_branch}")
    targets = _typed_list(raw["entropy_targets_bits"], (int, float), "entropy_targets_bits")
    return CapacityConfig(
        spec=spec,
        beta_max_abs=beta_max_abs,
        points_per_branch=points_per_branch,
        entropy_targets_bits=tuple(float(s) for s in targets),
        output_dir=_typed(outputs["directory"], str, "outputs.directory"),
    )


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} overflows to {value}")
    return value


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def load_json(path: str | Path) -> dict:
    """Parse a config file; NaN, Infinity and overflowing numbers are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_float=_finite_float, parse_constant=_reject_constant)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except ValueError as exc:  # json.JSONDecodeError or a non-finite number
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def load_scenario(path: str | Path) -> ScenarioConfig:
    return parse_scenario(load_json(path))


def load_capacity(path: str | Path) -> CapacityConfig:
    return parse_capacity(load_json(path))
