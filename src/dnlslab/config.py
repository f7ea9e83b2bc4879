"""Run configuration: strict JSON-compatible schema with round-trip parsing.

The schema is the dataclasses below, dynamics.SimConfig and
initial_data.DataSpec; parsing and the canonical echo derive from their fields
and annotations. Each of them checks its own ranges when it is built, so a
config built in code holds no out-of-range block either. Unknown keys anywhere
are rejected before any computation.
"""

from __future__ import annotations

import functools
import json
import math
import types
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from itertools import product

from .dynamics import GAUGE_BETA, SimConfig
from .grid import check_grid
from .initial_data import DataSpec


class ConfigError(ValueError):
    """Configuration rejected: by schema validation at parse time, or by a
    command, before it steps, for data or scan pairs that do not fit."""


FORMAT_CHOICES = ("csv", "json", "frames", "plot")


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


@dataclass(frozen=True)
class GridBlock:
    L: float = 2.0 * math.pi
    N: int = 256

    def __post_init__(self):
        check_grid(self.L, self.N)


@dataclass(frozen=True)
class OutputsBlock:
    dir: str = "out"
    formats: tuple[str, ...] = ("csv", "json")

    def __post_init__(self):
        _check(self.dir != "", "dir must not be empty")
        for i, fmt in enumerate(self.formats):
            _check(fmt in FORMAT_CHOICES,
                   f"formats[{i}] must be one of {FORMAT_CHOICES}, got {fmt!r}")


@dataclass(frozen=True)
class GaugeCheckBlock:
    beta: float = GAUGE_BETA
    tolerance: float = 1e-6

    def __post_init__(self):
        _check(self.tolerance > 0, f"tolerance must be positive, got {self.tolerance}")


@dataclass(frozen=True)
class GnAuditBlock:
    num_fields: int = 1000
    L_values: tuple[float, ...] = (0.5, 1.0, 2.0 * math.pi, 10.0)
    delta_values: tuple[float, ...] = (0.1, 1.0, 10.0)
    N: int = 128
    max_mode: int = 16
    seed: int = 7
    corrupt_constant: float = 1.0

    def __post_init__(self):
        _check(len(self.L_values) > 0, "L_values must not be empty")
        for L in self.L_values:
            check_grid(L, self.N)
        _check(self.num_fields >= 1, f"num_fields must be >= 1, got {self.num_fields}")
        _check(len(self.delta_values) > 0, "delta_values must not be empty")
        _check(all(d > 0 for d in self.delta_values), "delta_values must be positive")
        # the audit divides by delta*sqrt(L)
        for L, d in product(self.L_values, self.delta_values):
            _check(d * math.sqrt(L) > 0, f"delta * sqrt(L) underflows to 0 at "
                   f"L = {L}, delta = {d}")
        _check(self.max_mode >= 1, f"max_mode must be >= 1, got {self.max_mode}")
        _check(self.corrupt_constant > 0, f"corrupt_constant must be positive, "
               f"got {self.corrupt_constant}")
        _check(self.seed >= 0, f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ScanPair:
    L: float
    delta: float
    dt: float | None = None
    N: int | None = None

    def __post_init__(self):
        check_grid(self.L, self.N)
        _check(self.delta > 0, f"delta must be positive, got {self.delta}")
        _check(self.dt is None or self.dt > 0, f"dt must be positive, got {self.dt}")


@dataclass(frozen=True)
class ThresholdScanBlock:
    mass_fractions: tuple[float, ...] = (0.5, 0.9, 0.99)
    pairs: tuple[ScanPair, ...] = (
        ScanPair(L=2.0 * math.pi, delta=1.0, dt=2e-4, N=128),
        ScanPair(L=1.0, delta=0.1, dt=2e-5, N=128),
    )

    def __post_init__(self):
        _check(len(self.mass_fractions) > 0, "mass_fractions must not be empty")
        _check(all(fr > 0 for fr in self.mass_fractions), "mass_fractions must be positive")
        _check(len(self.pairs) > 0, "pairs must not be empty")


@dataclass(frozen=True)
class RunConfig:
    grid: GridBlock = GridBlock()
    sim: SimConfig = SimConfig(dt=1e-3, T=1.0, record_stride=100)
    data: DataSpec = DataSpec()
    delta: float = 1.0
    outputs: OutputsBlock = OutputsBlock()
    gauge_check: GaugeCheckBlock = GaugeCheckBlock()
    gn_audit: GnAuditBlock = GnAuditBlock()
    threshold_scan: ThresholdScanBlock = ThresholdScanBlock()

    def __post_init__(self):
        _check(self.delta > 0, f"delta must be positive, got {self.delta}")

_type_hints = functools.cache(typing.get_type_hints)


def _parse_block(cls, doc, path, default):
    """Build cls from a JSON object by its fields and annotations; absent keys
    keep the value in default (or the class default when default is None)."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object, got {type(doc).__name__}")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")
    kw = {}
    for f in fields(cls):
        key = f"{path}.{f.name}"
        if f.name in doc:  # a block field is addressed by its own name
            tp = _type_hints(cls)[f.name]
            kw[f.name] = _coerce(tp, doc[f.name], f.name if is_dataclass(tp) else key,
                                 getattr(default, f.name, None))
        elif default is None and f.default is MISSING:
            raise ConfigError(f"{key}: required")
    try:
        return cls(**kw) if default is None else replace(default, **kw)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def _coerce(tp, v, path, default=None):
    """Check one JSON value against the annotation tp and convert it."""
    if is_dataclass(tp):
        return _parse_block(tp, v, path, default)
    if typing.get_origin(tp) is types.UnionType:  # X | None
        inner, _ = typing.get_args(tp)
        return None if v is None else _coerce(inner, v, path)
    if typing.get_origin(tp) is tuple:
        if not isinstance(v, list):
            raise ConfigError(f"{path}: expected a list, got {v!r}")
        item = typing.get_args(tp)[0]
        return tuple(_coerce(item, x, f"{path}[{i}]") for i, x in enumerate(v))
    if tp is float:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {v!r}")
        if not math.isfinite(v):
            raise ConfigError(f"{path}: expected a finite number, got {v!r}")
        return float(v)
    what = {int: "an integer", str: "a string"}[tp]
    if not isinstance(v, tp) or (tp is int and isinstance(v, bool)):
        raise ConfigError(f"{path}: expected {what}, got {v!r}")
    return v


def parse_config(doc: dict) -> RunConfig:
    """Validate a configuration document and build a RunConfig."""
    return _parse_block(RunConfig, doc, "config", RunConfig())


def config_to_dict(cfg: RunConfig) -> dict:
    """Canonical JSON-compatible document; parse(config_to_dict(c)) == c."""
    return json.loads(json.dumps(asdict(cfg)))  # tuples become lists


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    return parse_config(doc)
