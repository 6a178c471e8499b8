"""Self-tests of the adiawell benchmark.

    python3 -m pytest adiabench/selftest.py -q      # from the checkout root

The file name keeps it out of a plain `pytest` run of the package's tests:
it runs one round of every workload and the command itself, about a
minute on 2 CPUs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def test_request_lists_follow_the_seed():
    for name in workloads.WORKLOADS:
        first = workloads.requests_for(name, SEED)
        assert first == workloads.requests_for(name, SEED)
        other = workloads.requests_for(name, SEED + 1)
        assert [r.argv for r in first] != [r.argv for r in other]
        # the seed moves values only: the same commands in the same order
        assert [r.argv[0] for r in first] == [r.argv[0] for r in other]


def _sweep_exact(req: workloads.Request) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact values and leading terms behind one sweep's rows."""
    from adiawell import asymptotics, wavefield
    from adiawell.spectrum import ModelParams

    argv = list(req.argv)
    eps_list = [float(e) for e in argv[argv.index("--eps") + 1].split(",")]
    check = argv[argv.index("--check") + 1]
    exact, lead = [], []
    for eps in eps_list:
        params = ModelParams(eps=eps, n=req.n)
        t = req.tau / eps
        if check == "adiabatic":
            x = float(argv[argv.index("--x") + 1])
            exact.append(complex(wavefield.mode_solution(params, t, np.array([x])).psi[0]))
            lead.append(asymptotics.adiabatic_leading(params, x, t))
        else:
            x = 1.0 - req.tau + float(argv[argv.index("--xi") + 1])
            exact.append(complex(wavefield.mode_outside(params, t, np.array([x])).psi[0]))
            lead.append(asymptotics.outside_leading(params, x, t))
    return np.array(eps_list), np.array(exact), np.array(lead)


def _perturbed_sweep(req, out, how):
    """The sweep rows the program would print with a perturbed exact value."""
    eps, exact, lead = _sweep_exact(req)
    moved = exact * (1.0 + 1e-6) if how == "scale" else np.conj(exact)
    err = np.abs(lead - moved)
    if "outside" in req.argv:
        err = err / np.abs(moved)
    order = float(np.polyfit(np.log(eps), np.log(err), 1)[0])
    return replace(out, sweep_err=err, order=order)


@pytest.fixture(scope="module")
def cli():
    return run._import_cli()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_check_fails_on_a_perturbed_result(cli, name):
    reqs = workloads.requests_for(name, SEED)
    outs = []
    for req in reqs:
        rc, _, text = run._run_request(cli, req.argv, None)
        assert rc == 0, req.argv
        outs.append(workloads.parse_output(req.cmd, text))
    refs = workloads.references(reqs, outs)
    checks, _ = workloads.evaluate(name, reqs, outs, refs)
    assert all(c.ok for c in checks), checks

    failing = set()
    for how in ("scale", "conj"):
        moved = [
            _perturbed_sweep(req, out, how) if req.cmd == "sweep"
            else workloads.perturb(out, how)
            for req, out in zip(reqs, outs)
        ]
        bad, _ = workloads.evaluate(name, reqs, moved, refs)
        failing |= {c.name for c in bad if not c.ok}
    assert failing == {c.name for c in checks}


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "adiabatic_field",
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in _bench_json()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in _bench_json()["workloads"]] == list(workloads.WORKLOADS)
