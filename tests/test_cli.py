"""End-to-end runs of the command-line front end (in-process)."""

import dataclasses
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quantizer_oracle as oracle
from maxdtn import cli, mie
from maxdtn.cli import main
from maxdtn.config import RunConfig


def write_cfg(tmp_path, extra=""):
    p = tmp_path / "run.ini"
    p.write_text("[run]\nnpoints = 60\nseed = 3\n" + extra)
    return str(p)


def test_identities_pass(tmp_path):
    cfg = write_cfg(tmp_path)
    rc = main(["identities", "--config", cfg, "--output-dir", str(tmp_path)])
    assert rc == 0
    out = tmp_path / "identities.csv"
    text = out.read_text()
    assert text.startswith("# maxdtn report\n")
    assert "# npoints = 60\n" in text
    assert "cross-system-trace" in text and "FAIL" not in text


def test_identities_deterministic(tmp_path):
    cfg = write_cfg(tmp_path)
    argv = ["identities", "--config", cfg, "--output-dir", str(tmp_path)]
    assert main(argv) == 0
    first = (tmp_path / "identities.csv").read_bytes()
    assert main(argv) == 0
    assert (tmp_path / "identities.csv").read_bytes() == first


def test_identities_fault_hook_fails(tmp_path):
    cfg = write_cfg(tmp_path)
    rc = main(["identities", "--config", cfg, "--output-dir", str(tmp_path),
               "--fault-gamma", "1e-3"])
    assert rc == 1
    text = (tmp_path / "identities.csv").read_text()
    assert "FAIL" in text


def test_identities_fault_near_tangency_fails(tmp_path):
    # the fault leaves some covectors within the pre-filter's old 1e-8 but
    # outside the solver's tangency bound; they must be reported, not raised
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nchart = ellipsoid\nnpoints = 5000\nseed = 1\n")
    rc = main(["identities", "--config", str(cfg), "--output-dir", str(tmp_path),
               "--fault-gamma", "1e-3"])
    assert rc == 1
    assert "FAIL" in (tmp_path / "identities.csv").read_text()


@pytest.mark.parametrize("line", ["bogus = 1", "threads = 2"],
                         ids=["bogus", "threads"])
def test_unknown_config_key(tmp_path, line):
    cfg = write_cfg(tmp_path, line + "\n")
    assert main(["identities", "--config", cfg]) == 2


def test_threads_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["identities", "--threads", "2"])
    assert exc.value.code == 2


def test_every_config_field_is_read():
    # a RunConfig field that cli.py never reads is a knob without effect
    src = inspect.getsource(cli)
    used = set(re.findall(r"\bcfg\.(\w+)", src))
    for name in list(used):
        prop = getattr(RunConfig, name, None)
        if isinstance(prop, property):
            used |= set(re.findall(r"\bself\.(\w+)", inspect.getsource(prop.fget)))
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert fields - used == set()


def test_invalid_config_value(tmp_path):
    cfg = write_cfg(tmp_path, "eps = -2.0\n")
    assert main(["identities", "--config", cfg]) == 2


def test_eikonal_command(tmp_path):
    cfg = write_cfg(tmp_path, "n = 4\n")
    rc = main(["eikonal", "--config", cfg, "--output-dir", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "eikonal.csv").read_text()
    assert "flat" in text and "FAIL" not in text


def _residual_passes(tmp_path, n, j):
    cfg = write_cfg(tmp_path, f"n = {n}\nj = {j}\n")
    rc = main(["residual", "--config", cfg, "--output-dir", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "residual.csv").read_text()
    slope, need = map(float, re.search(r"fitted x1 slope = (\S+) \(expected >= (\S+)\)",
                                       text).groups())
    assert need == pytest.approx(n + j - 0.7) and slope >= need


def test_residual_command(tmp_path):
    _residual_passes(tmp_path, 2, 1)


@pytest.mark.parametrize("n,j", [(RunConfig.N, RunConfig.J), (3, 2)],
                         ids=["defaults", "test_04"])
def test_residual_command_wider_tables(tmp_path, n, j):
    # the config defaults and test_04's shape run deeper recursions than
    # the small table above
    _residual_passes(tmp_path, n, j)


def test_te_scan_certified(tmp_path):
    cfg = write_cfg(tmp_path,
                    "eps = 4.0\neps2 = 1.0\nmu2 = 1.0\n"
                    "ell_max = 2\nre_max = 8.0\nregion_c = 2.0\ncertify = true\n")
    rc = main(["te-scan", "--config", cfg, "--output-dir", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "te_scan.csv").read_text()
    assert "region free = True" in text
    top = 2.0 * 9.0 ** (5.0 / 7.0) + 10.0
    assert (f"# scanned up to Im = {top:.17g}; the band above is not examined\n"
            in text)


def test_te_scan_calibrated_names_the_violator_setting_C(tmp_path):
    # the test_08 media at ell <= 4, Re <= 4: the ell = 1 TM eigenvalue
    # 2.6945+0.7092i has the largest ratio Im / (Re + 1)^(5/7), which puts
    # C on the first calibration grid value above it
    cfg = write_cfg(tmp_path,
                    "eps = 4.0\neps2 = 1.0\nmu2 = 1.0\nell_max = 4\nre_max = 4.0\n"
                    "calibrate = true\ncertify = true\n")
    rc = main(["te-scan", "--config", cfg, "--output-dir", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "te_scan.csv").read_text()
    assert "# C = 0.33124999999999999\n" in text
    assert "# region free = True\n" in text
    m = re.search(r"^# C\* = (\S+) set by ell = 1 TM at (\S+)j$", text, re.M)
    assert m
    c_star, z = float(m.group(1)), complex(m.group(2) + "j")
    assert abs(z - (2.6945328938 + 0.7091600682j)) < 1e-9
    assert c_star == pytest.approx((z.imag + 1e-9) / (z.real + 1.0) ** (5.0 / 7.0), rel=1e-15)
    assert 0.33125 - 0.05 - 0.03125 <= c_star < 0.33125 - 0.05


def test_identities_points_column(tmp_path):
    # every identity of a clean run is evaluated at every point; under the
    # fault no point survives the tangency filter, so the two checks that
    # need the cross-system solution run over zero points and must FAIL
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nchart = ellipsoid\nnpoints = 5000\nseed = 1\n")
    argv = ["identities", "--config", str(cfg), "--output-dir", str(tmp_path)]
    assert main(argv) == 0
    rows = _csv_rows(tmp_path / "identities.csv")
    assert [r[0] for r in rows] == sorted(r[0] for r in rows)
    assert all(r[1] == "5000" and r[4] == "pass" for r in rows)
    assert main(argv + ["--fault-gamma", "1e-3"]) == 1
    rows = {r[0]: r for r in _csv_rows(tmp_path / "identities.csv")}
    for name in ("two-media-inverse", "approximate-inverse"):
        assert rows[name][1] == "0" and rows[name][4] == "FAIL"


def _csv_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def test_quantizer_command(tmp_path):
    cfg = write_cfg(tmp_path, "h_list = 0.125 0.0625 0.03125 0.015625 0.0078125\n")
    rc = main(["quantizer", "--config", cfg, "--output-dir", str(tmp_path)])
    assert rc == 0
    rows = _csv_rows(tmp_path / "quantizer.csv")
    assert len(rows) == 9
    bound = [(float(h), float(th), float(r)) for h, th, _, r in rows
             if th != "nan"]
    assert len(bound) == len(RunConfig().thetas)
    factory = cli._rho_inverse_factory(1.0, 1.0)
    n = max(RunConfig().grid_n, 32)
    for h, th, norm in bound:
        ref = np.linalg.svd(oracle.quantize_matrix(factory(h, th), h, n),
                            compute_uv=False)[0]
        assert abs(norm - ref) <= 1e-12 * ref


def test_quantizer_command_converges(recwarn):
    # the defect norms converge and the boundedness norms are exact; the
    # identity's norm, read from its samples, is exactly 1
    _, _, ok, summary = cli.cmd_quantizer(RunConfig())
    assert ok
    assert recwarn.list == []
    assert "|Op(1)| = 1" in summary


def test_quantizer_default_names_skipped_h(tmp_path):
    # the default h_list reaches below 2^-9; the entries not run are named
    # in the report instead of vanishing from it
    assert main(["quantizer", "--output-dir", str(tmp_path)]) == 0
    head = "# skipped h below 2^-9, not run: "
    lines = [ln for ln in (tmp_path / "quantizer.csv").read_text().splitlines()
             if ln.startswith(head)]
    assert len(lines) == 1
    assert [float(v) for v in lines[0][len(head):].split()] == [1 / 640, 1 / 1280]
    hs = {float(r[0]) for r in _csv_rows(tmp_path / "quantizer.csv")}
    assert not hs & {1 / 640, 1 / 1280}


def test_quantizer_h_list_below_range_exits_2(tmp_path, capsys):
    # an h_list with no h >= 2^-9 is refused, not replaced by other h
    cfg = write_cfg(tmp_path, "h_list = 0.0001\n")
    assert main(["quantizer", "--config", cfg, "--output-dir", str(tmp_path)]) == 2
    assert "0.0001" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_te_scan_bad_boolean_exits_2(tmp_path):
    # a misspelt boolean would otherwise skip certification and exit 0
    cfg = write_cfg(tmp_path, "ell_max = 2\nre_max = 8.0\ncertify = ture\n")
    assert main(["te-scan", "--config", cfg, "--output-dir", str(tmp_path)]) == 2
    assert not (tmp_path / "te-scan.csv").exists()


@pytest.mark.parametrize("text", ["npoints = 60\n", "eps = abc\n"],
                         ids=["repeated", "not-a-number"])
def test_config_parse_errors_exit_2(tmp_path, text):
    cfg = write_cfg(tmp_path, text)
    assert main(["identities", "--config", cfg]) == 2


@pytest.mark.parametrize("command,text", [
    ("te-scan", "ell_max = 0\n"),
    ("identities", "chart = ellipsoid\naxes = 0 1 1\n"),
    ("eikonal", "chart = ellipsoid\naxes = 0 1 1\n"),
    ("residual", "chart = ellipsoid\naxes = 1 1\n"),
    ("quantizer", "thetas = nan 0.2\n"),
    ("quantizer", "h_list = inf 0.01\n"),
    ("dtn-compare", "h_list = nan 0.01\n"),
    ("eikonal", "lam_im = nan\n"),
    ("eikonal", "lam_re = -inf\n"),
], ids=["no-modes", "zero-axis", "zero-axis-eikonal", "two-axes", "nan-theta",
        "inf-h-quantizer", "nan-h-dtn-compare", "nan-lam-im", "inf-lam-re"])
def test_degenerate_configs_exit_2(tmp_path, command, text):
    # each used to crash with a Python error, or to fail a check with a
    # misleading error, instead of a configuration error
    cfg = write_cfg(tmp_path, text)
    assert main([command, "--config", cfg, "--output-dir", str(tmp_path)]) == 2
    assert not list(tmp_path.glob("*.csv"))


def test_dtn_compare_rows_equal_those_of_a_fuller_table(monkeypatch):
    # the symbol reads iota_nu B_{0,0} and iota_nu B_{1,0} only, so the
    # N = 1, J = 1 table on an n1 = 2 series and an N = 2 phase gives the
    # rows of the N = 2, J = 1 table on an n1 = 3 series and N = 3 phase
    cfg = RunConfig()
    report = cli.cmd_dtn_compare(cfg)
    gamma_series, eikonal_coeffs = mie.GammaSeries, mie.eikonal_coeffs
    transport_coeffs = mie.transport_coeffs

    def fuller_series(chart, base, n1, order):
        assert n1 == 2
        return gamma_series(chart, base, n1=3, order=order)

    def fuller_phase(gs, media, sp, xiprime, N):
        assert N == 2
        return eikonal_coeffs(gs, media, sp, xiprime, N=3)

    def fuller_table(ps, media, N, J):
        assert (N, J) == (1, 1)
        return transport_coeffs(ps, media, N=2, J=1)

    monkeypatch.setattr(mie, "GammaSeries", fuller_series)
    monkeypatch.setattr(mie, "eikonal_coeffs", fuller_phase)
    monkeypatch.setattr(mie, "transport_coeffs", fuller_table)
    assert cli.cmd_dtn_compare(cfg) == report


def test_dtn_compare_empty_h_list_fails(tmp_path, capsys):
    # no h means no slope: the verdict is FAIL, not a vacuous pass
    cfg = write_cfg(tmp_path, "h_list =\n")
    assert main(["dtn-compare", "--config", cfg, "--output-dir", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert sum("slope = nan" in line and line.endswith("FAIL") for line in lines) == 4
    assert lines[-1].startswith("dtn-compare: FAIL")


def test_dtn_compare_all_resonant_fails(monkeypatch):
    # every mode resonant leaves no point to fit for any (pol, order); the
    # command makes one call for all of h_list, (ell, lam) broadcast together
    calls = []

    def resonant(ells, lams, media, R):
        calls.append(1)
        return [{"ell": ell, "pol": pol, "lam_re": lam.real, "lam_im": lam.imag,
                 "resonant": True, "exact": None}
                for ell, lam in zip(ells, lams) for pol in ("TE", "TM")]

    monkeypatch.setattr(cli, "dtn_compare", resonant)
    rows, _, ok, summary = cli.cmd_dtn_compare(RunConfig())
    assert calls == [1]
    assert not ok
    assert len(rows) == 2 * len(RunConfig().h_list)
    assert len(summary) == 4
    assert all("slope = nan" in line and line.endswith("FAIL") for line in summary)


_NUMPY_ONLY = """
import sys
for name in ("scipy", "mpmath", "hypothesis"):
    sys.modules[name] = None          # any import of them now fails
from maxdtn import cli
out = sys.argv[1]
assert cli.main(["quantizer", "--output-dir", out]) == 0
assert cli.main(["identities", "--output-dir", out]) == 0
"""


def test_runtime_imports_only_numpy(tmp_path):
    # the package's only runtime dependency is numpy; the test extras
    # (scipy, mpmath, hypothesis) must not be reached by the commands
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _NUMPY_ONLY, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "quantizer.csv").exists()
    assert (tmp_path / "identities.csv").exists()
