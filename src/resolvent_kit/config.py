"""Run configuration: flat key = value files plus command-line overrides.

Precedence: command line > config file > defaults. Unknown keys are
rejected rather than ignored so typos fail loudly.

``RunConfig`` is the one list of run settings: the file key, the
command-line flag and the value type of each setting are derived from
its field.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, fields
from typing import Optional

from .errors import ConfigError

COMMANDS = ("smatrix", "resonances", "bound-states", "dos", "resolvent", "selftest")

# the allowed values of the settings that take one of a fixed set
CHOICES = {"family": ("laguerre", "oscillator"), "method": ("smoothing", "continuation")}


@dataclass
class RunConfig:
    command: str = "smatrix"
    family: str = "laguerre"
    lam: float = 1.0
    ell: int = 0
    z_charge: float = 0.0
    size: int = 40
    potential: str = ""
    e_min: float = 0.1
    e_max: float = 8.0
    steps: int = 200
    method: str = "smoothing"
    delta: Optional[float] = None
    fit_height: float = 0.5
    fit_order: int = 8
    fit_threshold: float = 5e-2
    n_index: Optional[int] = None
    m_index: Optional[int] = None
    im_z: float = 0.0
    range_r: float = 50.0
    csv: str = "out.csv"
    json: str = "out.json"
    gnuplot_script: str = ""

    def validate(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}; expected one of {', '.join(COMMANDS)}")
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(f"unknown {name} {value!r}; expected one of {', '.join(allowed)}")
        for name in ("e_min", "e_max", "im_z"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.e_min < self.e_max:
            raise ConfigError(f"need e_min < e_max, got {self.e_min} >= {self.e_max}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.size < 2:
            raise ConfigError(f"N must be >= 2, got {self.size}")
        if self.lam <= 0:
            raise ConfigError(f"lambda must be positive, got {self.lam}")
        if self.ell < 0:
            raise ConfigError(f"ell must be >= 0, got {self.ell}")
        return self

    def as_dict(self) -> dict:
        return {file_key(f.name): getattr(self, f.name) for f in fields(self)}


# every file key is its field's name but these
_RENAMED_KEYS = {"lam": "lambda", "z_charge": "Z", "size": "N"}


def file_key(name: str) -> str:
    """Config-file key of a field; the command-line flag is ``--`` + key
    with ``_`` written as ``-``."""
    return _RENAMED_KEYS.get(name, name)


# str, int or float per field: the annotation, with Optional[T] read as T
FIELD_TYPES = {
    name: (typing.get_args(hint) or (hint,))[0] for name, hint in typing.get_type_hints(RunConfig).items()
}
_FIELD_BY_KEY = {file_key(name): name for name in FIELD_TYPES}


def _convert(field_name: str, raw: str):
    raw = raw.strip()
    kind = FIELD_TYPES[field_name]
    if kind is str:
        return raw
    if raw.lower() in ("none", ""):
        return None
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value {raw!r} for key {file_key(field_name)!r}") from exc


def parse_config_file(path: str) -> dict:
    """Read a flat ``key = value`` file; '#' starts a comment."""
    overrides = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_BY_KEY:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        field_name = _FIELD_BY_KEY[key]
        overrides[field_name] = _convert(field_name, raw)
    return overrides


def build_config(file_overrides: dict, cli_overrides: dict) -> RunConfig:
    cfg = RunConfig()
    for source in (file_overrides, cli_overrides):
        for name, value in source.items():
            if value is None:
                continue
            setattr(cfg, name, value)
    return cfg.validate()
