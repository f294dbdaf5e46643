"""RunConfig defaults and INI loading, and the package's list of options."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import maxdtn
from maxdtn.config import RunConfig, load_config
from maxdtn.errors import ConfigError


def test_defaults_validate():
    cfg = RunConfig()
    cfg.validate()
    assert cfg.lam == complex(cfg.lam_re, cfg.lam_im)


def test_environment_does_not_set_tol(monkeypatch):
    # tol is set by the [run] key only; the environment is not read
    monkeypatch.setenv("MAXDTN_TOL", "1e-8")
    assert RunConfig().tol == 1e-10


def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[run]\n"
                 "chart = ellipsoid\n"
                 "axes = 1.0 1.5 0.5\n"
                 "eps = 2.5\n"
                 "npoints = 50\n"
                 "certify = true\n"
                 "h_list = 0.025, 0.0125\n")
    cfg = load_config(str(p))
    assert cfg.chart == "ellipsoid"
    assert cfg.axes == (1.0, 1.5, 0.5)
    assert cfg.eps == 2.5
    assert cfg.npoints == 50
    assert cfg.certify is True
    assert cfg.h_list == (0.025, 0.0125)
    cfg.validate()


def test_load_config_case_insensitive_keys(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[run]\nregion_C = 0.4\nN = 5\n")
    cfg = load_config(str(p))
    assert cfg.region_C == 0.4
    assert cfg.N == 5


def test_load_config_unknown_key(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[run]\nepsilon = 2.0\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(str(p))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.ini"))


def test_load_config_missing_section(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[other]\neps = 2.0\n")
    with pytest.raises(ConfigError, match="run"):
        load_config(str(p))


def test_load_config_repeated_key(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[run]\nnpoints = 60\nnpoints = 70\n")
    with pytest.raises(ConfigError, match=r"run\.ini.*'npoints'"):
        load_config(str(p))


def test_load_config_bad_number(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[run]\nnpoints = abc\n")
    with pytest.raises(ConfigError, match=r"run\.ini.*'npoints'"):
        load_config(str(p))


@pytest.mark.parametrize("raw,want", [
    ("1", True), ("yes", True), ("TRUE", True), ("On", True),
    ("0", False), ("No", False), ("false", False), ("OFF", False),
])
def test_load_config_booleans(tmp_path, raw, want):
    p = tmp_path / "run.ini"
    p.write_text(f"[run]\ncertify = {raw}\ncalibrate = {raw}\n")
    cfg = load_config(str(p))
    assert cfg.certify is want and cfg.calibrate is want


@pytest.mark.parametrize("text", ["certify = maybe\n", "calibrate = ture\n"],
                         ids=["maybe", "ture"])
def test_load_config_bad_boolean(tmp_path, text):
    # an unrecognised boolean must not load as False
    p = tmp_path / "run.ini"
    p.write_text("[run]\n" + text)
    key = text.split()[0]
    with pytest.raises(ConfigError, match=rf"run\.ini.*'{key}'"):
        load_config(str(p))


@pytest.mark.parametrize("field,value", [
    ("eps", -1.0), ("radius", 0.0), ("theta", float("nan")),
    ("N", 1), ("chart", "torus"), ("grid_n", 100), ("npoints", -3),
    ("grid_n", 0), ("ell_max", 0), ("axes", (0.0, 1.0, 1.0)), ("axes", (1.0, 1.0)),
    ("axes", (1.0, float("inf"), 1.0)), ("axes", (1.0, -1.2, 0.8)), ("region_C", 0.0),
])
def test_validate_rejects(field, value):
    cfg = RunConfig()
    setattr(cfg, field, value)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_items_covers_all_fields():
    cfg = RunConfig()
    keys = [k for k, _ in cfg.items()]
    assert "eps" in keys and "h_list" in keys and "tol" in keys
    assert len(keys) == len(set(keys))


#: every defaulted parameter of the package, as "module.qualname:parameter";
#: a new option is added here on purpose, not by accident
DEFAULTED_PARAMETERS = {
    "cli._write_csv:summary", "cli.cmd_identities:fault_gamma", "cli.main:argv",
    "eikonal.eikonal_coeffs:flattened",
    "geometry.SurfaceChart.random_points:margin", "geometry.SurfaceChart.sphere:radius",
    "geometry.gamma_pointwise:x1",
    "mie.dtn_compare:R",
    "quantizer.boundedness_check:n", "quantizer.composition_defect:n",
    "transport.maxwell_residual:ftilde",
    "transport.transport_coeffs:J", "transport.transport_coeffs:media_corrections",
    "transport.transport_coeffs:scheme",
}


def _defaulted_parameters():
    """Defaulted parameters of every function and method the package defines
    (dataclass __init__s left out: their defaults are the fields')."""
    found = set()

    def visit(name, fn):
        for p in inspect.signature(fn).parameters.values():
            if p.default is not inspect.Parameter.empty:
                found.add(f"{name}:{p.name}")

    for info in pkgutil.iter_modules(maxdtn.__path__):
        mod = importlib.import_module(f"maxdtn.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                visit(f"{info.name}.{name}", obj)
            elif inspect.isclass(obj):
                for attr, fn in vars(obj).items():
                    fn = getattr(fn, "__func__", fn)      # class/static methods
                    skip = attr == "__init__" and dataclasses.is_dataclass(obj)
                    if inspect.isfunction(fn) and not skip:
                        visit(f"{info.name}.{name}.{attr}", fn)
    return found


def test_defaulted_parameters_are_listed():
    assert _defaulted_parameters() == DEFAULTED_PARAMETERS
