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

from maxdtn import cli
from maxdtn.cli import main
from maxdtn.config import RunConfig
from maxdtn.quantizer import quantize


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


def test_residual_command(tmp_path):
    cfg = write_cfg(tmp_path, "n = 2\nj = 1\n")
    rc = main(["residual", "--config", cfg, "--output-dir", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "residual.csv").read_text()
    assert "fitted x1 slope" in text


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
        ref = np.linalg.svd(quantize(factory(h, th), h, n).matrix,
                            compute_uv=False)[0]
        assert abs(norm - ref) <= 1e-12 * ref


def test_quantizer_command_converges(recwarn):
    # the defect norms converge and the boundedness norms are exact; the
    # identity's norm, read from its assembled matrix, is exactly 1
    _, _, ok, summary = cli.cmd_quantizer(RunConfig())
    assert ok
    assert recwarn.list == []
    assert "|Op(1)| = 1" in summary


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
