"""CSV contracts, exit codes, and config handling for the command line.

Everything runs in-process through cli.run so exit codes and output are
captured exactly; one subprocess test confirms the entry point is wired
up, running it as the installed ``adia`` script, or through
``python -m adiawell`` when the script is not installed.  Heavy
subcommands are exercised on trivial windows or short grids since the
numerics behind them have their own suites.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import adiawell
from adiawell import branches, cli, spectrum, symbolfield
from adiawell.cli import run

try:
    import tomllib
except ModuleNotFoundError:  # standard library from Python 3.11 on
    tomllib = None

REGIMES = {"adiabatic", "transition", "aftermath"}
# R0(0.5+0.8j) at eps=0.1 by mpmath (the reference of test_symbolfield.py)
R0_NESTED_REF = -0.00029317010883591661691 + 0.00047730702917243011217j


def _rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# =====================================================================
# eigen and special
# =====================================================================


def test_eigen_row_matches_spectrum(tmp_path):
    out = tmp_path / "eigen.csv"
    assert run(["eigen", "--n", "1", "--tau", "-2", "--out", str(out)]) == 0
    header, rows = _rows(out)
    assert header == ["p_n", "E_n", "dlnpn_dtau"]
    assert len(rows) == 1
    p, energy, slope = map(float, rows[0])
    assert p == spectrum.p_n(1, -2.0)
    assert energy == spectrum.e_n(1, -2.0)
    assert slope == spectrum.dlnpn_dtau(1, -2.0)


def test_special_branch_values_round_trip(tmp_path):
    out = tmp_path / "l0.csv"
    code = run(["special", "--fn", "l0", "--z", "0.5+0.1j,0.3-0.2j",
                "--out", str(out)])
    assert code == 0
    header, rows = _rows(out)
    assert header == ["re", "im"]
    got = [complex(float(r), float(i)) for r, i in rows]
    want = [branches.l0(0.5 + 0.1j), branches.l0(0.3 - 0.2j)]
    assert got == [complex(w) for w in want]


def test_special_zeta_accepts_negative_points(tmp_path):
    out = tmp_path / "zeta.csv"
    assert run(["special", "--fn", "zeta", "--z=-4,-9", "--out", str(out)]) == 0
    _, rows = _rows(out)
    assert len(rows) == 2
    # deep negative arguments sit near -2 sqrt(-t)
    assert float(rows[0][0]) == pytest.approx(-4.0, abs=0.05)
    assert float(rows[1][0]) == pytest.approx(-6.0, abs=0.05)


def test_special_big_l0_needs_eps():
    assert run(["special", "--fn", "L0", "--z", "0.5"]) == 2


def _complex_rows(path):
    return [complex(float(r), float(i)) for r, i in _rows(path)[1]]


def test_special_big_l0_on_the_upper_edge(tmp_path):
    out = tmp_path / "L0.csv"
    assert run(["special", "--fn", "L0", "--z", "1.5", "--side", "1",
                "--eps", "0.1", "--out", str(out)]) == 0
    assert _complex_rows(out) == [symbolfield.big_l0(1.5, 0.1, side=1).value]


def test_special_r0_on_the_cuts_and_off_axis(tmp_path):
    out = tmp_path / "R0.csv"
    assert run(["special", "--fn", "R0", "--z=-1.3,1.3", "--eps", "0.1",
                "--out", str(out)]) == 0
    left, right = _complex_rows(out)
    assert left == right  # R0 is even
    assert abs(right) < 1.0  # and decays along the cut
    assert run(["special", "--fn", "R0", "--z", "0.5+0.8j", "--eps", "0.1",
                "--out", str(out)]) == 0
    [value] = _complex_rows(out)
    assert abs(value - R0_NESTED_REF) / abs(R0_NESTED_REF) < 1e-9
    # far along the cut R0 is subnormal, then zero, not a refusal
    assert run(["special", "--fn", "R0", "--z", "15,30", "--eps", "0.1",
                "--out", str(out)]) == 0
    assert _complex_rows(out) == [3.520286902e-314 - 8.9668517936e-314j, 0.0]


def test_special_r0_far_along_the_cut_is_fast(tmp_path):
    # 30,000 steps of R0's difference equation in one blocked pass take a few
    # ms; a per-period Python loop took 0.9 s
    argv = ["special", "--fn", "R0", "--z", "3000", "--eps", "0.1",
            "--out", str(tmp_path / "R0.csv")]
    times = []
    for _ in range(3):
        start = time.perf_counter()
        assert run(argv) == 0
        times.append(time.perf_counter() - start)
    assert min(times) < 0.1


# =====================================================================
# field and compare
# =====================================================================


def test_field_csv_contract(tmp_path):
    out = tmp_path / "field.csv"
    code = run(["field", "--eps", "0.2", "--n", "1", "--t", "-10",
                "--x-steps", "5", "--out", str(out)])
    assert code == 0
    header, rows = _rows(out)
    assert header == ["x", "tau", "re_psi", "im_psi", "est_error"]
    assert len(rows) == 5
    taus = {row[1] for row in rows}
    assert taus == {"-2.0"}
    # wall row: the field vanishes within its own error estimate
    x0 = [float(v) for v in rows[0]]
    assert x0[0] == 0.0
    assert abs(complex(x0[2], x0[3])) <= x0[4] + 1e-15


def test_field_series_agrees_with_contour(tmp_path):
    a, b = tmp_path / "contour.csv", tmp_path / "series.csv"
    base = ["field", "--eps", "0.2", "--n", "1", "--t", "-10",
            "--x-min", "0.5", "--x-max", "2.5", "--x-steps", "3"]
    assert run(base + ["--out", str(a)]) == 0
    assert run(base + ["--method", "series", "--out", str(b)]) == 0
    _, rows_a = _rows(a)
    _, rows_b = _rows(b)
    for ra, rb in zip(rows_a, rows_b):
        va = complex(float(ra[2]), float(ra[3]))
        vb = complex(float(rb[2]), float(rb[3]))
        assert abs(va - vb) < 1e-13


def test_compare_csv_contract(tmp_path):
    out = tmp_path / "compare.csv"
    code = run(["compare", "--eps", "0.1", "--n", "1", "--t", "-20",
                "--x-steps", "6", "--delta-reg", "1.0", "--out", str(out)])
    assert code == 0
    header, rows = _rows(out)
    assert header == ["x", "re_exact", "im_exact", "re_asym", "im_asym",
                      "abs_err", "regime"]
    assert len(rows) == 6
    for row in rows:
        exact = complex(float(row[1]), float(row[2]))
        asym = complex(float(row[3]), float(row[4]))
        assert float(row[5]) == abs(exact - asym)
        assert row[6] in REGIMES
    assert rows[0][6] == "adiabatic"


# =====================================================================
# sweep
# =====================================================================


def test_sweep_rows_follow_input_order(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["sweep", "--check", "adiabatic", "--eps", "0.1,0.05",
                "--n", "1", "--tau", "-2", "--out", str(out)])
    assert code == 0
    header, rows = _rows(out)
    assert header == ["eps", "err", "order_fit"]
    assert [row[0] for row in rows] == ["0.1", "0.05"]
    # first-order asymptotics: the fitted slope is near one and shared
    orders = {row[2] for row in rows}
    assert len(orders) == 1
    assert 0.7 < float(orders.pop()) < 1.3


def test_sweep_single_point_has_no_order(tmp_path):
    # one distinct eps gives no slope, also when it is repeated
    for eps in ("0.1", "0.1,0.1"):
        out = tmp_path / "one.csv"
        code = run(["sweep", "--check", "adiabatic", "--eps", eps,
                    "--n", "1", "--tau", "-2", "--out", str(out)])
        assert code == 0
        _, rows = _rows(out)
        assert [row[2] for row in rows] == ["nan"] * len(rows)


# =====================================================================
# oracle
# =====================================================================


def test_oracle_trivial_window_csv(tmp_path):
    out = tmp_path / "oracle.csv"
    code = run(["oracle", "--eps", "0.2", "--n", "1", "--t0", "-20",
                "--t1", "-20", "--x-max", "26", "--nx", "100",
                "--dt", "0.01", "--out", str(out)])
    assert code == 0
    header, rows = _rows(out)
    assert header == ["deviation", "norm_drift", "runtime_ms", "boundary_amp"]
    assert len(rows) == 1
    assert float(rows[0][0]) == 0.0
    assert float(rows[0][1]) == 0.0
    assert float(rows[0][2]) >= 0.0
    assert float(rows[0][3]) == 0.0  # no step taken, nothing reached the wall


def test_oracle_rejects_reversed_window():
    code = run(["oracle", "--eps", "0.2", "--n", "1", "--t0", "-5",
                "--t1", "-6", "--x-max", "20", "--nx", "50", "--dt", "0.01"])
    assert code == 2


# =====================================================================
# reproducibility, config files, exit codes
# =====================================================================


def test_byte_identical_reruns(tmp_path):
    argv = ["field", "--eps", "0.2", "--n", "1", "--t", "-10", "--x-steps", "5"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_json_config_supplies_parameters(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format_version": 1, "n": 1, "tau": -2.0}))
    out = tmp_path / "eigen.csv"
    code = run(["eigen", "--json-config", str(cfg), "--out", str(out)])
    assert code == 0
    _, rows = _rows(out)
    assert float(rows[0][0]) == spectrum.p_n(1, -2.0)


def test_flags_beat_json_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format_version": 1, "n": 1, "tau": -2.0}))
    out = tmp_path / "eigen.csv"
    code = run(["eigen", "--json-config", str(cfg), "--tau", "-1",
                "--out", str(out)])
    assert code == 0
    _, rows = _rows(out)
    assert float(rows[0][0]) == spectrum.p_n(1, -1.0)


def test_run_builds_no_parser(monkeypatch):
    def fail():
        raise AssertionError("run() must reuse the parser built at import")

    monkeypatch.setattr(cli, "_build_parser", fail)
    assert run(["eigen", "--n", "1", "--tau", "-2"]) == 0


def test_requests_in_one_process_are_independent(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format_version": 1, "n": 1, "tau": -2.0}))
    assert run(["eigen", "--json-config", str(cfg)]) == 0
    # the config's tau does not carry into the next request
    assert run(["eigen", "--n", "1"]) == 2
    capsys.readouterr()
    argv = ["eigen", "--n", "1", "--tau", "-2"]
    assert run(argv) == 0
    before = capsys.readouterr().out
    # a request that fails in the parser after reading --tau leaves nothing behind
    assert run(["eigen", "--n", "1", "--tau", "-1", "--bogus"]) == 2
    capsys.readouterr()
    assert run(argv) == 0
    assert capsys.readouterr().out == before


# each payload: the command line and the config file it is given
@pytest.mark.parametrize(
    "payload",
    [
        (["eigen"], {"n": 1, "tau": -2.0}),                       # missing version
        (["eigen"], {"format_version": 2, "n": 1, "tau": -2.0}),  # wrong version
        (["eigen"], {"format_version": 1, "bogus": 3.0}),         # unknown key
        (["eigen"], {"format_version": 1, "tau": "minus two"}),   # wrong type
        (["eigen"], ["not", "an", "object"]),                     # not a dict
        # values outside the flag's choices
        (["special"], {"format_version": 1, "fn": "a", "z": "0.5", "deriv": 5}),
        (["oracle"], {"format_version": 1, "eps": 0.2, "n": 1, "t0": -10.0,
                      "t1": -10.0, "snap": "bogus"}),
        (["special", "--fn", "l0", "--z", "1.5"], {"format_version": 1, "side": 7}),
        # JSON's NaN parses to a float, but no number may be non-finite
        (["eigen"], {"format_version": 1, "n": 1, "tau": float("nan")}),
    ],
)
def test_json_config_rejected(tmp_path, payload):
    argv, config = payload
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(argv + ["--json-config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "argv,code",
    [
        (["field", "--eps", "1.5", "--n", "1", "--t", "-10"], 2),
        (["field", "--eps", "0.2", "--n", "1", "--t", "6"], 2),
        (["eigen", "--n", "1", "--tau", "-2", "--tol", "1e-13"], 2),  # unknown flag
        (["eigen", "--n", "1"], 2),
        # the lattice route evaluates past the well edge too
        (["field", "--eps", "0.2", "--n", "1", "--t", "-10",
          "--method", "series", "--x-max", "5"], 0),
        (["eigen", "--n", "1", "--tau", "0.9"], 3),
        # usage errors found before any evaluation or worker pool starts
        (["field", "--eps", "0.2", "--n", "0", "--t", "-10"], 2),
        (["compare", "--eps", "0.2", "--n", "0", "--t", "-10"], 2),
        (["sweep", "--check", "adiabatic", "--eps", "0.2,0.1", "--n", "0",
          "--tau", "-2"], 2),
        (["oracle", "--eps", "0.2", "--n", "0", "--t0", "-10", "--t1", "-10"], 2),
        (["eigen", "--n", "0", "--tau", "-1"], 2),
        (["field", "--eps", "0.2", "--n", "1", "--t", "-10", "--x-min", "-0.5"], 2),
        (["sweep", "--check", "adiabatic", "--eps", "0.2,0.1", "--n", "1",
          "--tau", "-2", "--x", "-0.5"], 2),
        (["sweep", "--check", "outside", "--eps", "0.2,0.1", "--n", "1",
          "--tau", "-2", "--xi", "-0.3"], 2),
        (["compare", "--eps", "0.2", "--n", "1", "--t", "-10", "--delta-reg", "0"], 2),
        (["compare", "--eps", "0.2", "--n", "1", "--t", "-10", "--delta-reg", "-1"], 2),
        # non-finite numbers are usage errors
        (["eigen", "--n", "1", "--tau", "nan"], 2),
        (["eigen", "--n", "1", "--tau=-inf"], 2),
        (["compare", "--eps", "0.2", "--n", "1", "--t", "-10", "--delta-reg", "nan"], 2),
        (["field", "--eps", "0.2", "--n", "1", "--t", "nan"], 2),
        (["field", "--eps", "0.2", "--n", "1", "--t", "-10", "--x-max", "nan"], 2),
        (["sweep", "--check", "adiabatic", "--eps", "0.2,0.1", "--n", "1",
          "--tau", "nan"], 2),
        (["oracle", "--eps", "0.2", "--n", "1", "--t0", "-10", "--t1", "-10",
          "--x-max", "20", "--nx", "10", "--dt", "nan"], 2),
        (["special", "--fn", "transition", "--z", "nan"], 2),
        (["special", "--fn", "transition", "--z", "0.5,inf+1j"], 2),
        (["special", "--fn", "R0", "--z", "0.5", "--eps", "0"], 2),
        # the oracle's wall must lie past the well edge at t0 (here 3)
        (["oracle", "--eps", "0.2", "--n", "1", "--t0", "-10", "--t1", "-10",
          "--x-max", "-5", "--nx", "10"], 2),
        (["oracle", "--eps", "0.2", "--n", "1", "--t0", "-10", "--t1", "-10",
          "--x-max", "0.5", "--nx", "10"], 2),
        # at tau_1 the saddle of the edge point sits on the branch point
        (["sweep", "--check", "outside", "--eps", "0.1", "--n", "1",
          "--tau", "-0.5707963267948966", "--xi", "0"], 3),
        # far up the imaginary axis the moment series once overflowed to nan
        (["special", "--fn", "L0", "--z", "1e155j", "--eps", "0.1"], 0),
        # points far along a cut are refused before any large allocation
        (["special", "--fn", "L0", "--z", "1e300+0.01j", "--eps", "0.1"], 3),
        (["special", "--fn", "L0", "--z", "1e9+0.01j", "--eps", "0.1"], 3),
        (["special", "--fn", "R0", "--z", "1e5+0.01j", "--eps", "0.1"], 3),
        # R0 on the cut is one exp of ln R0, so a subnormal value is printed;
        # R0 that over- or underflows off the cut is refused, not printed as nan
        (["special", "--fn", "R0", "--z", "15", "--eps", "0.1"], 0),
        (["special", "--fn", "R0", "--z", "1e200j", "--eps", "0.1"], 3),
        (["special", "--fn", "R0", "--z=30-0.1j", "--eps", "0.1"], 3),
        # 1e10 steps of the edge difference equation are refused before any sweep
        (["special", "--fn", "R0", "--z", "1e9", "--eps", "0.1"], 3),
        # R0(30) = exp(-1856.8 + 922.4i) underflows to zero
        (["special", "--fn", "R0", "--z", "30", "--eps", "0.1"], 0),
        # past the edge at tau_1 and after it, where the eigenvalue has gone
        (["field", "--eps", "0.1", "--n", "1", "--t", "-5.707963267948966",
          "--x-min", "2.6", "--x-max", "3.0", "--x-steps", "2", "--method", "series"], 0),
        (["field", "--eps", "0.1", "--n", "1", "--t", "-5.0",
          "--x-min", "2.6", "--x-max", "3.0", "--x-steps", "2", "--method", "series"], 0),
    ],
)
def test_exit_codes(argv, code):
    assert run(argv) == code


def _source_env():
    """The environment of a child that imports the package under test."""
    env = dict(os.environ)
    src = str(Path(adiawell.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_cli_import_loads_no_symbolic_packages():
    # set-up time: the series coefficients come from integer algebra and a
    # table of Bernoulli numbers, not from mpmath or sympy; the Airy pair and
    # zeta_R(3/2) need no scipy
    code = ("import sys, adiawell.cli; "
            "print(sorted({'mpmath', 'sympy', 'scipy'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_source_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_transition_requests_load_no_scipy():
    # a compare in the transition window and one in the aftermath window
    # (eps 0.125, tau_1 - 0.1 and tau_1 + 0.5) evaluate F; only the oracle's
    # banded solve needs scipy
    requests = [
        ["compare", "--eps", "0.125", "--n", "1", "--t", "-5.366", "--x-steps", "3"],
        ["compare", "--eps", "0.125", "--n", "1", "--t", "-0.566", "--x-steps", "3"],
        ["special", "--fn", "transition", "--z", "0.5,-3+2j"],
    ]
    code = ("import contextlib, io, json, sys; from adiawell.cli import run\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            f"    codes = [run(argv) for argv in {requests!r}]\n"
            "print(json.dumps({'codes': codes,\n"
            "                  'regimes': sorted({line.rsplit(',', 1)[-1]\n"
            "                                     for line in out.getvalue().splitlines()}),\n"
            "                  'scipy': sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_source_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["codes"] == [0, 0, 0]
    assert {"transition", "aftermath"} <= set(seen["regimes"])
    assert seen["scipy"] == []


def test_console_script_usage_error():
    # `python -m adiawell` must run the target the console script names
    if tomllib is not None:
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts["adia"] == "adiawell.cli:main"

    exe = shutil.which("adia")
    env = dict(os.environ)
    if exe is not None:
        argv = [exe, "nonsense"]
    else:
        # source checkout: make the child import the package under test
        env = _source_env()
        argv = [sys.executable, "-m", "adiawell", "nonsense"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 2
    assert "usage: adia" in proc.stderr
