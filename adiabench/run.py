"""adiawell benchmark: one workload per invocation, in a fresh process.

    python3 adiabench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`.  The command first starts the interpreter SETUP_PROBES times to time
set-up (imports and argument parser), then runs the workload in one more
fresh process with BLAS/OpenMP pinned to one thread and ADIA_THREADS=1.
That process sends the workload's requests through `adiawell.cli.run`, one
at a time (a closed loop with one client), in whole rounds until `--seconds`
have passed, then checks the first round's outputs.  The last line of
standard output is the result: every end-to-end metric with `--trace 0`,
every per-layer metric with `--trace 1` (a separate run, since the spans
cost time).  A full record, and with `--trace 1` the spans, go to
adiabench/out/.

Times are CPU seconds of the process (user + system), scaled to a
reference machine speed by `gauge.py`.  The process is single-threaded and
compute-bound, so its CPU time is the wall time it takes on a machine of its
own.  On a shared virtual machine the wall time also counts the time the
hypervisor gives the CPU to others, and the CPU time itself moves with the
speed the host grants (README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_PROBES = 4
RUN_LIMIT_S = 170.0
# two BLAS threads bring no wall-time gain on these requests but 1.5-1.8x
# the CPU time (README.md); the sweep pool is kept sequential alike
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "ADIA_THREADS": "1",
}

END_TO_END = {
    "setup_s": "s",
    "first_result_cpu_s": "s",
    "round_cpu_s": "s",
    "request_cpu_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "est_error_digits": "digits",
    "ref_error_digits": "digits",
}


def _per_layer_unit(name: str) -> str:
    if name.endswith("_ns_per_point"):
        return "ns"
    return "ms" if "ms" in name.rsplit(".", 1)[1] else "count"


def _import_cli():
    """Import the command line module from this checkout's src/ only."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    from adiawell import cli

    if Path(cli.__file__).resolve().parents[1] != src:
        raise SystemExit(f"adiawell was imported from {cli.__file__}, not from src/")
    cli._build_parser()
    return cli


# =====================================================================
# inside the fresh process
# =====================================================================


def _run_request(cli, argv, tracer) -> tuple[int, float, str]:
    """Exit code, wall seconds and CSV text of one request."""
    buf = io.StringIO()
    tic = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                rc = cli.run(list(argv))
            else:
                with tracer.span("cli.request"):
                    rc = cli.run(list(argv))
    except Exception:  # a request that crashes counts as failed; the run goes on
        traceback.print_exc()
        rc = -1
    return rc, time.perf_counter() - tic, buf.getvalue()


def _worker(args) -> dict:
    cli = _import_cli()
    setup = time.process_time()

    import gauge
    import tracing
    import workloads
    from adiawell import asymptotics, symbolfield, wavefield

    reqs = workloads.requests_for(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    hooks = (
        tracer.installed({"wavefield": wavefield, "symbolfield": symbolfield,
                          "asymptotics": asymptotics})
        if tracer else contextlib.nullcontext()
    )
    # spans would count the gauge's kernel runs, so a traced run reads the
    # gauge between requests only
    speed = gauge.Gauge(during=not args.trace)
    setup *= gauge.REF_S / speed.speed()
    cpu_s, spans, wall_s, first_round = [], [], [], []
    attempted = failed = rounds = 0
    with hooks:
        start = time.perf_counter()
        while True:
            for req in reqs:
                if tracer is not None:
                    tracer.request = attempted
                (rc, wall, text), cpu, span = speed.timed(
                    lambda: _run_request(cli, req.argv, tracer))
                attempted += 1
                failed += rc != 0
                cpu_s.append(cpu)
                spans.append(span)
                wall_s.append(wall)
                if rounds == 0:
                    first_round.append((req, rc, text))
            rounds += 1
            if time.perf_counter() - start >= args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scaled_s = [speed.scale(c, s) for c, s in zip(cpu_s, spans)]
    # the median request takes each request's median over the rounds, so the
    # number of rounds, which follows machine speed, cannot shift it
    per_request = [statistics.median(scaled_s[i::len(reqs)]) for i in range(len(reqs))]

    # checks: the first round's outputs, requests that did not fail
    done = [(req, text) for req, rc, text in first_round if rc == 0]
    ok_reqs = [req for req, _ in done]
    outs = [workloads.parse_output(req.cmd, text) for req, text in done]
    try:
        refs = workloads.references(ok_reqs, outs)
        checks, accuracy = workloads.evaluate(args.workload, ok_reqs, outs, refs)
        correct = all(c.ok for c in checks)
        check_rows = [{"name": c.name, "ok": bool(c.ok), "value": float(c.value),
                       "limit": float(c.limit)} for c in checks]
    except Exception:  # a check that cannot be computed is a failed check
        traceback.print_exc()
        correct, check_rows = False, []
        accuracy = {"est_error_digits": 0.0, "ref_error_digits": 0.0}  # none verified

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "worker_setup_s": setup,
        "checks": check_rows,
        "request_cpu_s": cpu_s,
        "request_scaled_s": scaled_s,
        "request_wall_s": wall_s,
        "gauge_s": speed.samples,
        "gauge_spans": spans,
        "end_to_end": {
            "first_result_cpu_s": scaled_s[0],
            "round_cpu_s": sum(scaled_s[:len(reqs)]),
            "request_cpu_ms_p50": 1e3 * statistics.median(per_request),
            "peak_rss_mb": peak_rss_mb,
            **accuracy,
        },
    }
    if tracer is not None:
        record["per_layer"] = tracer.per_layer(rounds)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace_{args.workload}_seed{args.seed}.json")
    return record


# =====================================================================
# the command
# =====================================================================


def _child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    env = {**os.environ, **THREAD_ENV}
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv],
                          env=env, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv[:2]} exited with {proc.returncode}")
    return proc


def _launch(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "adiawell" / "cli.py").is_file():
        raise RuntimeError(f"no adiawell sources under {ROOT / 'src'}")
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc = _child(["--phase", "setup"], deadline - time.monotonic())
            setups.append(float(proc.stdout.split()[-1]))
    proc = _child(["--phase", "worker", "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)],
                  deadline - time.monotonic())
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    setups.append(record["worker_setup_s"])
    record["setup_samples_s"] = setups
    record["end_to_end"]["setup_s"] = statistics.median(setups)
    OUT.mkdir(exist_ok=True)
    name = f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1), encoding="utf-8")

    if args.trace:
        metrics = {k: {"value": v, "unit": _per_layer_unit(k)}
                   for k, v in record["per_layer"].items()}
    else:
        metrics = {k: {"value": record["end_to_end"][k], "unit": u}
                   for k, u in END_TO_END.items()}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--phase", choices=["run", "setup", "worker"], default="run",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.phase == "setup":
        _import_cli()
        setup = time.process_time()
        import gauge

        print(setup * gauge.REF_S / gauge.Gauge(during=False).speed())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.phase == "worker":
        print(json.dumps(_worker(args)))
        return 0
    try:
        result = _launch(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
