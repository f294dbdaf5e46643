"""Run configuration: defaults, INI-file loading, validation.

A single flat RunConfig drives every CLI command; unknown keys in the file
are rejected so typos fail fast.  A key's value is parsed by the type of
its RunConfig field.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields
from typing import get_type_hints

from .errors import ConfigError


@dataclass
class RunConfig:
    command: str = ""
    # geometry / media
    chart: str = "sphere"            # sphere | plane | ellipsoid
    radius: float = 1.0
    axes: tuple = (1.0, 1.2, 0.8)
    eps: float = 1.0
    mu: float = 1.0
    # spectral point and truncation orders
    lam_re: float = 5.0
    lam_im: float = 2.0
    N: int = 4
    J: int = 1
    # sampling
    npoints: int = 1000
    seed: int = 0
    # second medium (te-scan, two-media identities)
    eps2: float = 2.0
    mu2: float = 1.0
    c1: float = 1.0
    c2: float = 1.0
    ell_max: int = 10
    re_max: float = 30.0
    region_C: float = 0.5
    certify: bool = False
    calibrate: bool = False
    # dtn-compare sweep
    h_list: tuple = (1 / 40, 1 / 80, 1 / 160, 1 / 320, 1 / 640, 1 / 1280)
    theta: float = 0.5
    # quantizer
    grid_n: int = 16
    thetas: tuple = (0.1, 0.2, 0.4, 0.8)
    # plumbing
    tol: float = 1e-10
    output_dir: str = "."

    @property
    def lam(self):
        return complex(self.lam_re, self.lam_im)

    def validate(self):
        positive = ["radius", "eps", "mu", "eps2", "mu2", "c1", "c2",
                    "re_max", "region_C", "tol", "theta"]
        for name in positive:
            v = getattr(self, name)
            if not _positive_finite(v):
                raise ConfigError(f"{name} must be positive and finite, got {v!r}")
        if not (isinstance(self.axes, tuple) and len(self.axes) == 3
                and all(_positive_finite(v) for v in self.axes)):
            raise ConfigError(
                f"axes must be three positive finite numbers, got {self.axes!r}")
        for name in ["N", "J", "npoints", "ell_max", "grid_n", "seed"]:
            v = getattr(self, name)
            if not (isinstance(v, int) and v >= 0):
                raise ConfigError(f"{name} must be a nonnegative integer, got {v!r}")
        if self.N < 2:
            raise ConfigError("N must be at least 2")
        if self.ell_max < 1:
            raise ConfigError("ell_max must be at least 1")
        if self.chart not in ("sphere", "plane", "ellipsoid"):
            raise ConfigError(f"unknown chart {self.chart!r}")
        for name in ("lam_re", "lam_im"):
            v = getattr(self, name)
            if not _finite(v):
                raise ConfigError(f"{name} must be finite, got {v!r}")
        for name in ("h_list", "thetas"):
            v = getattr(self, name)
            if not all(_positive_finite(t) for t in v):
                raise ConfigError(f"{name} entries must be positive and finite, got {v!r}")
        if self.grid_n < 1:
            raise ConfigError("grid_n must be at least 1")
        if self.grid_n > 64:
            raise ConfigError("grid_n is capped at 64 (the quantizer's grid cap)")
        return self

    def items(self):
        """(key, value) pairs in declaration order, for the CSV header."""
        return [(f.name, getattr(self, f.name)) for f in fields(self)]


def _finite(v):
    return isinstance(v, (int, float)) and v == v and abs(v) != float("inf")


def _positive_finite(v):
    return _finite(v) and v > 0.0


#: parser of a key's raw text, by the type of its RunConfig field
_PARSERS = {
    str: str,
    int: int,
    float: float,
    bool: lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.lower()],
    tuple: lambda raw: tuple(float(t) for t in raw.replace(",", " ").split()),
}
_TYPES = get_type_hints(RunConfig)


def load_config(path):
    """Read an INI file ([run] section) into a RunConfig."""
    cfg = RunConfig()
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:     # names the file, line and key
        raise ConfigError(str(exc)) from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    if "run" not in parser:
        raise ConfigError(f"{path}: missing [run] section")
    known = {f.name.lower(): f.name for f in fields(RunConfig)}
    for key, raw in parser["run"].items():
        if key.lower() not in known:
            raise ConfigError(f"{path}: unknown key {key!r}")
        key = known[key.lower()]
        try:
            val = _PARSERS[_TYPES[key]](raw)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"{path}: bad value for {key!r}: {raw!r}") from exc
        setattr(cfg, key, val)
    return cfg
