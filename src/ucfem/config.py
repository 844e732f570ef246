"""Flat `key = value` run configuration with validation and canonical echo.

The config keys are the fields of RunConfig and its nested dataclasses,
walked in declaration order with dotted paths (`exact.n`); `geometry.dim`
is not a key.  Each field's default is the key's default, its type how the
raw value parses, and its position the key's place in the echo.  Dotted
keys, `#` comments, defaults applied for every omitted key.  The echo
emitted into reports re-parses to an equal RunConfig, which is what makes
runs reproducible from their own output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .geometry import Geometry


PERTURBATION_MODES = ("none", "oscillatory", "nodal_noise")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class PerturbationSpec:
    mode: str = "none"
    epsilon: float = 0.0
    kappa: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in PERTURBATION_MODES:
            raise ValueError(f"unknown perturbation mode {self.mode!r}")
        if self.epsilon < 0.0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")


@dataclass(frozen=True)
class ExactConfig:
    kind: str = "monomial"
    n: int = 3
    part: str = "Re"


@dataclass(frozen=True)
class HminConfig:
    mode: str = "off"
    value: float = 0.0
    scale: float = 0.0  # 0 = derive from the exact solution when mode == auto


@dataclass(frozen=True)
class OutputConfig:
    csv: str = ""
    json: str = ""


@dataclass(frozen=True)
class RunConfig:
    geometry: Geometry = field(default_factory=lambda: Geometry(0.25, 0.5, 1.0))
    k: int = 1
    sectors: int = 8
    levels: tuple = (1, 2, 3, 4, 5)
    exact: ExactConfig = field(default_factory=ExactConfig)
    perturbation: PerturbationSpec = field(default_factory=PerturbationSpec)
    hmin: HminConfig = field(default_factory=HminConfig)
    rate_window: tuple = ()  # empty = auto (levels >= 2 clipped to the run)
    output: OutputConfig = field(default_factory=OutputConfig)

    def resolved_rate_window(self) -> tuple:
        if self.rate_window:
            return self.rate_window
        lo = max(2, min(self.levels))
        hi = max(self.levels)
        if sum(1 for lv in self.levels if lo <= lv <= hi) < 2:
            return (min(self.levels), hi)
        return (lo, hi)


def _walk(obj, prefix: str = ""):
    """(dotted key, value) of every config field of a dataclass instance, in
    declaration order."""
    for f in fields(obj):
        key = prefix + f.name
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _walk(value, key + ".")
        elif key != "geometry.dim":
            yield key, value


def _rebuild(obj, values: dict, prefix: str = ""):
    """A copy of a dataclass instance with every field set from its dotted key."""
    changes = {}
    for f in fields(obj):
        key = prefix + f.name
        value = getattr(obj, f.name)
        if is_dataclass(value):
            changes[f.name] = _rebuild(value, values, key + ".")
        elif key in values:
            changes[f.name] = values[key]
    return replace(obj, **changes)


#: every config key and its default, in echo order
_DEFAULTS = dict(_walk(RunConfig()))

_CHOICES = {
    "exact.kind": ("monomial", "zero"),
    "exact.part": ("Re", "Im"),
    "perturbation.mode": PERTURBATION_MODES,
    "hmin.mode": ("off", "auto", "value"),
}

#: (keys, constraint, test on the values of those keys); checked in this order
_CONSTRAINTS = (
    (("geometry.r1",), "0 < r1", lambda r1: 0 < r1),
    (("geometry.r1", "geometry.r2"), "r1 < r2", lambda r1, r2: r1 < r2),
    (("geometry.r2", "geometry.r3"), "r2 < r3", lambda r2, r3: r2 < r3),
    (("k",), "k in {1, 2}", lambda k: k in (1, 2)),
    (("sectors",), "even and >= 6", lambda m: m >= 6 and m % 2 == 0),
    (("exact.n",), "n >= 1", lambda n: n >= 1),
    (("perturbation.epsilon",), "epsilon >= 0", lambda eps: eps >= 0),
    (
        ("perturbation.mode", "perturbation.epsilon"),
        "epsilon = 0 for perturbation.mode = none",
        lambda mode, eps: mode != "none" or eps == 0,
    ),
    (("perturbation.kappa",), "kappa > 0", lambda kappa: kappa > 0),
    (("perturbation.seed",), "seed >= 0", lambda seed: seed >= 0),
    (("hmin.value",), "value >= 0", lambda value: value >= 0),
    (
        ("hmin.mode", "hmin.value"),
        "value > 0 for hmin.mode = value",
        lambda mode, value: mode != "value" or value > 0,
    ),
    (("hmin.scale",), "scale >= 0", lambda scale: scale >= 0),
    (
        ("rate_window", "levels"),
        "an explicit window holds >= 2 levels",
        lambda window, levels: not window or sum(window[0] <= lv <= window[1] for lv in levels) >= 2,
    ),
)


def parse_entries(text: str) -> dict:
    """Split config text into a key -> raw-value dict; duplicate keys error."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _as_level_list(raw: str, key: str) -> tuple:
    raw = raw.strip()
    try:
        if ".." in raw:
            lo_s, hi_s = raw.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError
            values = tuple(range(lo, hi + 1))
        else:
            values = tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise ConfigError(f"{key}: expected 'a..b' or a comma list, got {raw!r}") from None
    if not values or any(v < 0 for v in values) or list(values) != sorted(set(values)):
        raise ConfigError(f"{key}: levels must be increasing and >= 0, got {raw!r}")
    return values


def _parse_value(key: str, raw: str):
    """The raw text of one key parsed by the type of its default."""
    if key == "levels":
        return _as_level_list(raw, key)
    if key == "rate_window":
        if raw.strip() == "auto":
            return ()
        window = _as_level_list(raw, key)
        return (window[0], window[-1])
    if key in _CHOICES:
        if raw not in _CHOICES[key]:
            raise ConfigError(f"{key}: expected one of {sorted(_CHOICES[key])}, got {raw!r}")
        return raw
    kind = type(_DEFAULTS[key])
    try:
        value = kind(raw)
    except ValueError:
        expected = "a number" if kind is float else "an integer"
        raise ConfigError(f"{key}: expected {expected}, got {raw!r}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    return value


def build_config(entries: dict) -> RunConfig:
    unknown = [key for key in entries if key not in _DEFAULTS]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r}")
    values = {
        key: _parse_value(key, entries[key]) if key in entries else default
        for key, default in _DEFAULTS.items()
    }
    if "perturbation.mode" not in entries and values["perturbation.epsilon"] > 0:
        values["perturbation.mode"] = "oscillatory"
    for keys, constraint, holds in _CONSTRAINTS:
        got = [values[key] for key in keys]
        if not holds(*got):
            raise ConfigError(
                f"{', '.join(keys)}: constraint {constraint} violated, "
                f"got {', '.join(map(repr, got))}"
            )
    return _rebuild(RunConfig(), values)


def parse_config(text: str) -> RunConfig:
    return build_config(parse_entries(text))


def _echo_value(key: str, value) -> str:
    if key == "levels":
        if list(value) == list(range(value[0], value[-1] + 1)):
            return f"{value[0]}..{value[-1]}"
        return ",".join(str(v) for v in value)
    if key == "rate_window":
        return f"{value[0]}..{value[1]}" if value else "auto"
    return repr(value) if isinstance(_DEFAULTS[key], float) else str(value)


def config_echo(cfg: RunConfig) -> dict:
    """Canonical key -> string map; re-parses to an equal RunConfig."""
    return {key: _echo_value(key, value) for key, value in _walk(cfg)}
