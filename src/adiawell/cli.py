"""Command-line front end: CSV emission for every computation in the package.

Each subcommand wraps one slice of the library behind flags and writes a
CSV table (header row first) to stdout or ``--out``.  All floating-point
output uses shortest round-trip formatting, computations are seed-free,
and sweep rows are reduced in input order, so repeated runs of the same
configuration produce byte-identical files.  The one exception is the
oracle's runtime telemetry column, which measures wall time.

Exit codes: 0 on success, 2 on validation or usage errors, 3 when the
numerics fail (no eigenvalue, continuation off its sheet, a quadrature or
linear solve giving up).

A ``--json-config FILE`` holding ``{"format_version": 1, "<flag>": value}``
can replace flags; explicit flags win over config values.  Either way every
number must be finite, eps must lie in (0, 1) and eps*t may not exceed 1.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import asymptotics, branches, oracle, special, spectrum, symbolfield, wavefield
from .errors import AdiawellError
from .spectrum import ModelParams

__all__ = ["run", "main"]

FORMAT_VERSION = 1

# default oracle grid: the documented validation run resolves the edge
# cell at dx = 0.02 and lands t1 exactly
_ORACLE_DX = 0.02
_ORACLE_DT = 0.005


class _Invalid(ValueError):
    """Bad parameter combination; mapped to exit code 2."""


# =====================================================================
# configuration plumbing
# =====================================================================

def _load_json_config(path: str, flags: argparse.ArgumentParser) -> dict:
    """Read a config file; each value must pass its flag's own type and choices."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _Invalid(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise _Invalid("config must be a JSON object")
    version = raw.pop("format_version", None)
    if not isinstance(version, int) or isinstance(version, bool):
        raise _Invalid("config needs an integer format_version")
    if version != FORMAT_VERSION:
        raise _Invalid(f"unsupported config format_version {version}")
    actions = {a.dest: a for a in flags._actions if a.dest not in ("help", "json_config")}
    merged = {}
    for key, value in raw.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise _Invalid(f"config key {key!r} not valid for '{flags.prog}'")
        # JSON numbers stand for float flags; every other flag takes its own type
        want = action.type or str
        ok = isinstance(value, want) or (want is float and isinstance(value, int))
        if not ok or isinstance(value, bool):
            raise _Invalid(
                f"config key {key!r} must be {want.__name__}, got {value!r}"
            )
        value = want(value)
        if action.choices is not None and value not in action.choices:
            raise _Invalid(
                f"config key {key!r} must be one of {list(action.choices)}, got {value!r}"
            )
        merged[action.dest] = value
    return merged


def _merge_config(args: argparse.Namespace, flags: argparse.ArgumentParser) -> None:
    """Fill unset flags from the JSON config; flags always win."""
    if not getattr(args, "json_config", None):
        return
    merged = _load_json_config(args.json_config, flags)
    for dest, value in merged.items():
        if getattr(args, dest, None) is None:
            setattr(args, dest, value)


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            flag = "--" + name.replace("_", "-")
            raise _Invalid(f"{flag} is required (flag or config)")


# smallest value of each numeric flag: mode indices start at 1, and the field
# lives on x >= 0 (xi is a distance past the well edge)
_MINIMA = {"n": 1, "x_steps": 1, "x_min": 0.0, "x": 0.0, "xi": 0.0}


def _validate(args: argparse.Namespace, eps=None, **taus) -> None:
    """Check every float flag is finite, every flag against _MINIMA, eps (a value
    or an array) lies in (0, 1) and every given tau <= 1."""
    for dest, value in vars(args).items():
        if isinstance(value, float) and not np.isfinite(value):
            raise _Invalid(f"--{dest.replace('_', '-')} must be finite, got {value}")
    for dest, low in _MINIMA.items():
        value = getattr(args, dest, None)
        if value is not None and value < low:
            raise _Invalid(f"--{dest.replace('_', '-')} must be at least {low}, got {value}")
    for value in np.atleast_1d(eps if eps is not None else []):
        if not 0.0 < value < 1.0:
            raise _Invalid(f"eps must lie in (0, 1), got {value}")
    for key, tau in taus.items():
        if tau is not None and tau > 1.0:
            raise _Invalid(f"eps*t must stay <= 1, got {key}={tau}")


# =====================================================================
# CSV emission
# =====================================================================


def _fmt(value) -> str:
    """Shortest round-trip text for one cell."""
    if isinstance(value, str):
        return value
    return repr(float(value))


def _emit(header: list[str], rows: list[list], out: str | None) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _parse_complex_list(text: str) -> list[complex]:
    points = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            point = complex(token)
        except ValueError as exc:
            raise _Invalid(f"cannot parse complex value {token!r}") from exc
        if not np.isfinite(point):
            raise _Invalid(f"--z points must be finite, got {token!r}")
        points.append(point)
    if not points:
        raise _Invalid("--z needs at least one point")
    return points


def _parse_float_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise _Invalid(f"cannot parse float list {text!r}") from exc
    if not values:
        raise _Invalid("--eps needs at least one value")
    return values


# =====================================================================
# subcommands
# =====================================================================


def _cmd_special(args) -> tuple[list[str], list[list]]:
    _require(args, "fn", "z")
    _validate(args, eps=args.eps)
    points = _parse_complex_list(args.z)
    side = args.side if args.side is not None else 0
    deriv = args.deriv if args.deriv is not None else 0
    if args.fn in ("q0", "l0", "rho0"):
        fn = getattr(branches, args.fn)
        values = [fn(z, side=side) for z in points]
    elif args.fn == "L0":
        _require(args, "eps")
        values = [symbolfield.big_l0(z, args.eps, side=side).value for z in points]
    elif args.fn == "R0":
        _require(args, "eps")
        values = [symbolfield.r0(z, args.eps).value for z in points]
    elif args.fn == "transition":
        values = [special.f_transition(z) for z in points]
    elif args.fn == "a":
        for z in points:
            if z.imag != 0.0:
                raise _Invalid("--fn a takes real arguments only")
        values = [special.a_fn(z.real, deriv=deriv) for z in points]
    elif args.fn == "zeta":
        values = np.atleast_1d(special.zeta_fn(np.array(points, dtype=complex)))
    else:
        raise _Invalid(f"unknown --fn {args.fn!r}")
    return ["re", "im"], [[v.real, v.imag] for v in map(complex, values)]


def _cmd_eigen(args) -> tuple[list[str], list[list]]:
    _require(args, "n", "tau")
    _validate(args, tau=args.tau)
    p = spectrum.p_n(args.n, args.tau)
    return ["p_n", "E_n", "dlnpn_dtau"], [
        [p, spectrum.e_n(args.n, args.tau), spectrum.dlnpn_dtau(args.n, args.tau)]
    ]


def _cmd_field(args) -> tuple[list[str], list[list]]:
    _require(args, "eps", "n", "t")
    tau = args.eps * args.t
    _validate(args, eps=args.eps, tau=tau)
    params = ModelParams(eps=args.eps, n=args.n)
    x_min = args.x_min if args.x_min is not None else 0.0
    x_max = args.x_max if args.x_max is not None else 1.0 - tau
    steps = args.x_steps if args.x_steps is not None else 200
    if x_max < x_min:
        raise _Invalid("--x-max must not be below --x-min")
    route = wavefield.fourier_mode if args.method == "series" else wavefield.mode_solution
    xs = np.linspace(x_min, x_max, steps)
    sample = route(params, args.t, xs)
    rows = [[x, tau, v.real, v.imag, e] for x, v, e in zip(xs, sample.psi, sample.est_error)]
    return ["x", "tau", "re_psi", "im_psi", "est_error"], rows


def _cmd_compare(args) -> tuple[list[str], list[list]]:
    _require(args, "eps", "n", "t")
    tau = args.eps * args.t
    _validate(args, eps=args.eps, tau=tau)
    if args.delta_reg is not None and args.delta_reg <= 0.0:
        raise _Invalid("--delta-reg must be positive")
    params = ModelParams(eps=args.eps, n=args.n)
    steps = args.x_steps if args.x_steps is not None else 200
    xs = np.linspace(0.0, 1.0 - tau, steps)
    exact = np.asarray(wavefield.mode_solution(params, args.t, xs).psi)
    approx, label = asymptotics.best_leading(params, xs, args.t,
                                             delta_reg=args.delta_reg)
    approx = np.asarray(approx)
    rows = [
        [x, e.real, e.imag, a.real, a.imag, abs(e - a), label.value]
        for x, e, a in zip(xs, exact, approx)
    ]
    header = ["x", "re_exact", "im_exact", "re_asym", "im_asym",
              "abs_err", "regime"]
    return header, rows


def _sweep_point(check: str, eps: float, n: int, tau: float,
                 x: float | None, xi: float) -> float:
    """Asymptotics-vs-exact error for one eps."""
    params = ModelParams(eps=eps, n=n)
    t = tau / eps
    edge = 1.0 - tau
    if check == "adiabatic":
        x_eval = x if x is not None else 0.7 * edge
        exact = complex(wavefield.mode_solution(params, t, np.array([x_eval])).psi[0])
        return abs(asymptotics.adiabatic_leading(params, x_eval, t) - exact)
    if check == "outside":
        x_eval = edge + xi
        exact = complex(wavefield.mode_outside(params, t, np.array([x_eval])).psi[0])
        return abs(asymptotics.outside_leading(params, x_eval, t) - exact) / abs(exact)
    if check == "transition":
        x_eval = x if x is not None else 0.7 * edge
        exact = complex(wavefield.mode_solution(params, t, np.array([x_eval])).psi[0])
        return abs(asymptotics.transition_leading(params, x_eval, t) - exact)
    raise _Invalid(f"unknown --check {check!r}")


def _cmd_sweep(args) -> tuple[list[str], list[list]]:
    _require(args, "eps", "n", "check")
    eps_list = _parse_float_list(args.eps)
    if args.check == "transition" and args.tau is None:
        tau = spectrum.tau_threshold(args.n)
    else:
        _require(args, "tau")
        tau = args.tau
    _validate(args, eps=np.array(eps_list), tau=tau)
    xi = args.xi if args.xi is not None else 0.5
    errs = [_sweep_point(args.check, eps, args.n, tau, args.x, xi) for eps in eps_list]

    # a slope needs two distinct eps with a positive error
    positive = [(e, err) for e, err in zip(eps_list, errs) if err > 0.0]
    if len({e for e, _ in positive}) >= 2:
        log_eps = np.log([e for e, _ in positive])
        log_err = np.log([err for _, err in positive])
        order = float(np.polyfit(log_eps, log_err, 1)[0])
    else:
        order = float("nan")
    rows = [[eps, err, order] for eps, err in zip(eps_list, errs)]
    return ["eps", "err", "order_fit"], rows


def _cmd_oracle(args) -> tuple[list[str], list[list]]:
    _require(args, "eps", "n", "t0", "t1")
    _validate(args, eps=args.eps, tau_final=args.eps * args.t1)
    if args.t1 < args.t0:
        raise _Invalid("--t1 must not be below --t0")
    params = ModelParams(eps=args.eps, n=args.n)
    x_max = args.x_max if args.x_max is not None else oracle.suggest_x_max(
        params, args.t1)
    if x_max <= 1.0 - args.eps * args.t0:
        raise _Invalid("--x-max must lie past the well edge 1 - eps*t0")
    nx = args.nx if args.nx is not None else int(np.ceil(x_max / _ORACLE_DX))
    dt = args.dt if args.dt is not None else _ORACLE_DT
    if nx < 2:
        raise _Invalid("--nx must be at least 2")
    if dt <= 0.0:
        raise _Invalid("--dt must be positive")
    snap = (oracle.SnapPolicy.NEAREST_NODE
            if args.snap == "nearest-node" else oracle.SnapPolicy.CELL_AVERAGE)
    grid = oracle.GridSpec(x_max=x_max, nx=nx, dt=dt, snap_policy=snap)
    report = oracle.propagate_report(params, args.t0, args.t1, grid)
    return ["deviation", "norm_drift", "runtime_ms", "boundary_amp"], [
        [report.deviation, report.norm_drift, report.runtime_ms, report.boundary_amp]
    ]


_DISPATCH = {
    "special": _cmd_special,
    "eigen": _cmd_eigen,
    "field": _cmd_field,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
}


# =====================================================================
# argument parsing and entry points
# =====================================================================


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The `adia` parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="adia",
        description="Shrinking-well mode evaluation, asymptotics, and oracle runs.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output CSV path (default stdout)")
    common.add_argument("--json-config", help="JSON file supplying parameters")

    sp = subs.add_parser("special", parents=[common],
                         help="evaluate branch and transition functions")
    sp.add_argument("--fn", choices=["q0", "l0", "rho0", "L0", "R0",
                                     "transition", "a", "zeta"])
    sp.add_argument("--z", help="comma-separated complex points")
    sp.add_argument("--eps", type=float, help="needed for L0 and R0")
    sp.add_argument("--deriv", type=int, choices=[0, 1, 2],
                    help="derivative order for --fn a")
    sp.add_argument("--side", type=int, choices=[-1, 0, 1],
                    help="boundary side for branch functions")

    eig = subs.add_parser("eigen", parents=[common],
                          help="bound-state momentum and energy at one tau")
    eig.add_argument("--n", type=int)
    eig.add_argument("--tau", type=float)

    fld = subs.add_parser("field", parents=[common],
                          help="evaluate the mode on an x grid")
    fld.add_argument("--eps", type=float)
    fld.add_argument("--n", type=int)
    fld.add_argument("--t", type=float)
    fld.add_argument("--x-min", type=float, dest="x_min")
    fld.add_argument("--x-max", type=float, dest="x_max")
    fld.add_argument("--x-steps", type=int, dest="x_steps")
    fld.add_argument("--method", choices=["contour", "series"])

    cmp_ = subs.add_parser("compare", parents=[common],
                           help="exact field against the regime asymptotics")
    cmp_.add_argument("--eps", type=float)
    cmp_.add_argument("--n", type=int)
    cmp_.add_argument("--t", type=float)
    cmp_.add_argument("--x-steps", type=int, dest="x_steps")
    cmp_.add_argument("--delta-reg", type=float, dest="delta_reg")

    swp = subs.add_parser("sweep", parents=[common],
                          help="asymptotic error across an eps list")
    swp.add_argument("--eps", help="comma-separated eps values")
    swp.add_argument("--n", type=int)
    swp.add_argument("--tau", type=float)
    swp.add_argument("--check", choices=["adiabatic", "outside", "transition"])
    swp.add_argument("--x", type=float, help="evaluation point inside the well")
    swp.add_argument("--xi", type=float, help="distance past the edge (outside)")

    orc = subs.add_parser("oracle", parents=[common],
                          help="propagate the mode and report the deviation")
    orc.add_argument("--eps", type=float)
    orc.add_argument("--n", type=int)
    orc.add_argument("--t0", type=float)
    orc.add_argument("--t1", type=float)
    orc.add_argument("--x-max", type=float, dest="x_max")
    orc.add_argument("--nx", type=int)
    orc.add_argument("--dt", type=float)
    orc.add_argument("--snap", choices=["cell-average", "nearest-node"])
    return parser, subs.choices


# built once per process: parsing leaves the parser unchanged, and each request
# gets its own namespace.  _build_parser stays callable: adiabench/run.py calls
# it to time set-up.
_PARSER, _FLAGS = _build_parser()


def run(argv: list[str] | None = None) -> int:
    """Parse argv, dispatch, and write CSV; returns the process exit code."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _merge_config(args, _FLAGS[args.subcommand])
        header, rows = _DISPATCH[args.subcommand](args)
        _emit(header, rows, args.out)
    except _Invalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AdiawellError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(run())
