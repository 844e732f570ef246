"""Flat `key = value` run configuration with validation and canonical echo.

Dotted keys, `#` comments, defaults applied for every omitted key.  The
echo emitted into reports re-parses to an equal RunConfig, which is what
makes runs reproducible from their own output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .geometry import Geometry
from .solver import PerturbationSpec


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExactConfig:
    kind: str = "monomial"  # monomial | zero
    n: int = 3
    part: str = "Re"


@dataclass(frozen=True)
class HminConfig:
    mode: str = "off"  # off | auto | value
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
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _as_float(entries, key, default):
    raw = entries.get(key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _as_int(entries, key, default):
    raw = entries.get(key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _as_choice(entries, key, default, choices):
    raw = entries.get(key, default)
    if raw not in choices:
        raise ConfigError(f"{key}: expected one of {sorted(choices)}, got {raw!r}")
    return raw


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


def build_config(entries: dict) -> RunConfig:
    unknown = [key for key in entries if key not in _KEYS]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r}")
    r1 = _as_float(entries, "geometry.r1", 0.25)
    r2 = _as_float(entries, "geometry.r2", 0.5)
    r3 = _as_float(entries, "geometry.r3", 1.0)
    if not r1 > 0:
        raise ConfigError("geometry.r1: constraint 0 < r1 violated")
    if not r1 < r2:
        raise ConfigError("geometry.r2: constraint r1 < r2 violated")
    if not r2 < r3:
        raise ConfigError("geometry.r2: constraint r2 < r3 violated")
    geometry = Geometry(r1, r2, r3)

    k = _as_int(entries, "k", 1)
    if k not in (1, 2):
        raise ConfigError(f"k: constraint k in {{1, 2}} violated, got {k}")
    sectors = _as_int(entries, "sectors", 8)
    if sectors < 6 or sectors % 2 != 0:
        raise ConfigError(f"sectors: constraint even and >= 6 violated, got {sectors}")

    levels = _as_level_list(entries.get("levels", "1..5"), "levels")

    kind = _as_choice(entries, "exact.kind", "monomial", {"monomial", "zero"})
    n = _as_int(entries, "exact.n", 3)
    if n < 1:
        raise ConfigError(f"exact.n: constraint n >= 1 violated, got {n}")
    part = _as_choice(entries, "exact.part", "Re", {"Re", "Im"})

    epsilon = _as_float(entries, "perturbation.epsilon", 0.0)
    if epsilon < 0:
        raise ConfigError("perturbation.epsilon: constraint epsilon >= 0 violated")
    default_mode = "oscillatory" if epsilon > 0 else "none"
    mode = _as_choice(
        entries, "perturbation.mode", default_mode, {"none", "oscillatory", "nodal_noise"}
    )
    kappa = _as_float(entries, "perturbation.kappa", 10.0)
    if kappa <= 0:
        raise ConfigError("perturbation.kappa: constraint kappa > 0 violated")
    seed = _as_int(entries, "perturbation.seed", 0)
    perturbation = PerturbationSpec(mode=mode, epsilon=epsilon, kappa=kappa, seed=seed)

    hmin_mode = _as_choice(entries, "hmin.mode", "off", {"off", "auto", "value"})
    hmin_value = _as_float(entries, "hmin.value", 0.0)
    hmin_scale = _as_float(entries, "hmin.scale", 0.0)
    if hmin_mode == "value" and hmin_value <= 0:
        raise ConfigError("hmin.value: constraint value > 0 violated for hmin.mode = value")
    if hmin_value < 0 or hmin_scale < 0:
        raise ConfigError("hmin: values must be >= 0")
    hmin = HminConfig(mode=hmin_mode, value=hmin_value, scale=hmin_scale)

    window_raw = entries.get("rate_window", "auto").strip()
    if window_raw == "auto":
        rate_window = ()
    else:
        window = _as_level_list(window_raw, "rate_window")
        rate_window = (window[0], window[-1])

    output = OutputConfig(
        csv=entries.get("output.csv", ""), json=entries.get("output.json", "")
    )

    return RunConfig(
        geometry=geometry,
        k=k,
        sectors=sectors,
        levels=levels,
        exact=ExactConfig(kind=kind, n=n, part=part),
        perturbation=perturbation,
        hmin=hmin,
        rate_window=rate_window,
        output=output,
    )


def parse_config(text: str) -> RunConfig:
    return build_config(parse_entries(text))


def config_echo(cfg: RunConfig) -> dict:
    """Canonical key -> string map; re-parses to an equal RunConfig."""
    levels = cfg.levels
    contiguous = list(levels) == list(range(levels[0], levels[-1] + 1))
    levels_str = (
        f"{levels[0]}..{levels[-1]}" if contiguous else ",".join(str(v) for v in levels)
    )
    window = cfg.rate_window
    window_str = "auto" if not window else f"{window[0]}..{window[1]}"
    return {
        "geometry.r1": repr(cfg.geometry.r1),
        "geometry.r2": repr(cfg.geometry.r2),
        "geometry.r3": repr(cfg.geometry.r3),
        "k": str(cfg.k),
        "sectors": str(cfg.sectors),
        "levels": levels_str,
        "exact.kind": cfg.exact.kind,
        "exact.n": str(cfg.exact.n),
        "exact.part": cfg.exact.part,
        "perturbation.mode": cfg.perturbation.mode,
        "perturbation.epsilon": repr(cfg.perturbation.epsilon),
        "perturbation.kappa": repr(cfg.perturbation.kappa),
        "perturbation.seed": str(cfg.perturbation.seed),
        "hmin.mode": cfg.hmin.mode,
        "hmin.value": repr(cfg.hmin.value),
        "hmin.scale": repr(cfg.hmin.scale),
        "rate_window": window_str,
        "output.csv": cfg.output.csv,
        "output.json": cfg.output.json,
    }


#: every config key, in echo order
_KEYS = tuple(config_echo(RunConfig()))


def config_to_text(cfg: RunConfig) -> str:
    return "".join(f"{key} = {val}\n" for key, val in config_echo(cfg).items())
