"""Request lists and output checks of the three adiawell benchmark workloads.

A workload is a fixed list of `adia` command lines (one round) drawn from a
seed, plus the checks that its outputs must pass.  The seed only moves each
slow time tau (and a few evaluation points) inside a narrow stratum, so every
seed exercises the same contours at nearly the same cost; the cost structure
is what the workload is chosen for, and the strata keep it stable.

Checks never compare against stored output.  They compare against a second
computation that shares no contour with the request (the ray or descent
contour, the exterior representation at the edge) or test a property the
method must have (first-order convergence of the leading terms, bounded error
constants, a decay rate, every measured gap within the sum of error bars).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

import numpy as np

WORKLOADS = ("adiabatic_field", "threshold_field", "exterior_field")

X_STEPS = 200

# error-constant ceilings of the property checks.  Each is about twice the
# largest constant measured over the workload's strata (see README.md);
# a result that is off by a phase or a conjugation exceeds them.
ADIABATIC_C = 0.9         # max |Psi - Psi_ad| / eps (criterion 08)
TRANSITION_C = 0.6        # |Psi - Psi_T| / (eps^(2/3) (1 + sqrt Z)) (criterion 09)
AFTERMATH_C = 2.0         # |Psi - Psi_A| / (eps^(7/6) + eps^(2/3)/(1+|z|)^2.5) (criterion 10)
EXTERIOR_C = 2.6          # |Psi - Psi_out| / (eps |Psi|) (criterion 12)
ORDER_RANGE = (0.7, 1.3)  # fitted convergence order of a sweep (criteria 08, 12)


def tau_threshold(n: int) -> float:
    """Slow time at which mode n reaches the continuum edge: 1 - pi (n - 1/2)."""
    return 1.0 - math.pi * (n - 0.5)


@dataclass(frozen=True)
class Request:
    """One `adia` command line and the parameters the checks need."""

    argv: tuple[str, ...]
    cmd: str
    eps: float
    n: int
    tau: float
    t: float = 0.0
    reference: str = ""        # "ray", "descent" or "edge": checked against it


def _field_argv(cmd: str, eps: float, n: int, t: float, *extra: str) -> tuple[str, ...]:
    return (cmd, "--eps", repr(eps), "--n", str(n), "--t", repr(t), *extra)


def _grid_request(cmd: str, eps: float, n: int, tau: float, reference: str = "") -> Request:
    t = tau / eps
    argv = _field_argv(cmd, eps, n, t, "--x-steps", str(X_STEPS))
    return Request(argv, cmd, eps, n, eps * t, t, reference)


def _sweep_request(check: str, eps_list: str, n: int, tau: float, *extra: str) -> Request:
    argv = ("sweep", "--check", check, "--eps", eps_list, "--n", str(n),
            "--tau", repr(tau), *extra)
    return Request(argv, "sweep", float(eps_list.split(",")[0]), n, tau)


def adiabatic_requests(rng: random.Random) -> list[Request]:
    """Descent contours well below threshold, tau_n - tau in [2, 3.5)."""
    plan = [
        (0.2, 1, "field", "ray"), (0.2, 2, "compare", ""),
        (0.1, 1, "compare", ""), (0.1, 2, "field", ""),
        (0.05, 1, "field", ""), (0.05, 2, "compare", ""),
    ]
    reqs = [
        _grid_request(cmd, eps, n, tau_threshold(n) - 2.0 - 1.5 * rng.random(), ref)
        for eps, n, cmd, ref in plan
    ]
    tau = tau_threshold(1) - 2.0 - rng.random()
    x = (0.3 + 0.4 * rng.random()) * (1.0 - tau)
    reqs.append(_sweep_request("adiabatic", "0.1,0.05,0.025", 1, tau, "--x", repr(x)))
    return reqs


THRESHOLD_EPS = 0.125


def threshold_requests(rng: random.Random) -> list[Request]:
    """Hook contours at one eps, tau - tau_n from -0.5 to +1 (jitter +-0.01).

    The first request is always the same kind, so that the per-eps hook
    table build it triggers is timed alike for every seed.
    """
    plan = [
        ("field", 1, -0.5, "descent"), ("compare", 1, -0.1, ""),
        ("compare", 1, 0.2, ""), ("compare", 1, 0.5, ""), ("compare", 2, -0.03, ""),
        ("field", 2, 0.8, ""), ("compare", 1, 1.0, ""),
    ]
    return [
        _grid_request(cmd, THRESHOLD_EPS, n,
                      tau_threshold(n) + off + 0.02 * (rng.random() - 0.5), ref)
        for cmd, n, off, ref in plan
    ]


EXTERIOR_EPS = 0.1
EXTERIOR_SPAN = 2.4   # x distance past the edge covered by a field request
EXTERIOR_POINTS = 3   # points past the edge per field request


def exterior_requests(rng: random.Random) -> list[Request]:
    """Points past the edge at tau < tau_n - 0.6, plus an outside sweep.

    Each field request starts exactly at the edge (that point is evaluated
    inside the well and checked against the exterior representation) and
    then places EXTERIOR_POINTS points at one t past it.
    """
    reqs = []
    for n in (1, 2):
        tau = tau_threshold(n) - 0.7 - rng.random()
        t = tau / EXTERIOR_EPS
        edge = 1.0 - EXTERIOR_EPS * t
        argv = _field_argv(
            "field", EXTERIOR_EPS, n, t, "--x-min", repr(edge),
            "--x-max", repr(edge + EXTERIOR_SPAN), "--x-steps", str(EXTERIOR_POINTS + 1),
        )
        reqs.append(Request(argv, "field", EXTERIOR_EPS, n, EXTERIOR_EPS * t, t, "edge"))
    tau = tau_threshold(1) - 1.2 - rng.random()
    xi = 0.5 + 0.5 * rng.random()
    reqs.append(_sweep_request("outside", "0.1,0.05,0.025", 1, tau, "--xi", repr(xi)))
    return reqs


_BUILDERS = {
    "adiabatic_field": adiabatic_requests,
    "threshold_field": threshold_requests,
    "exterior_field": exterior_requests,
}


def requests_for(workload: str, seed: int) -> list[Request]:
    """The round of requests of one workload; the same seed gives the same list."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


# =====================================================================
# parsed outputs
# =====================================================================


@dataclass(frozen=True)
class Output:
    """The CSV of one request, parsed.

    Grid requests fill x and psi (and est for `field`); sweeps fill
    sweep_eps, sweep_err and order.
    """

    x: np.ndarray | None = None
    psi: np.ndarray | None = None
    est: np.ndarray | None = None
    sweep_eps: np.ndarray | None = None
    sweep_err: np.ndarray | None = None
    order: float = math.nan


def parse_output(cmd: str, text: str) -> Output:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    cols = dict(zip(header, zip(*(line.split(",") for line in lines[1:]))))

    def num(name: str) -> np.ndarray:
        return np.array([float(v) for v in cols[name]])

    if cmd == "field":
        return Output(x=num("x"), psi=num("re_psi") + 1j * num("im_psi"),
                      est=num("est_error"))
    if cmd == "compare":
        return Output(x=num("x"), psi=num("re_exact") + 1j * num("im_exact"))
    return Output(sweep_eps=num("eps"), sweep_err=num("err"),
                  order=float(num("order_fit")[0]))


def perturb(out: Output, how: str) -> Output:
    """A grid output with Psi scaled by 1 + 1e-6 ("scale") or conjugated ("conj")."""
    if out.psi is None:
        return out
    psi = out.psi * (1.0 + 1e-6) if how == "scale" else np.conj(out.psi)
    return replace(out, psi=psi)


# =====================================================================
# checks
# =====================================================================


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    value: float
    limit: float


def _params(req: Request):
    from adiawell.spectrum import ModelParams

    return ModelParams(eps=req.eps, n=req.n)


def references(reqs: list[Request], outs: list[Output]) -> dict[int, tuple]:
    """Independent values at each referenced request's points.

    Returns {request index: (psi_ref, est_ref)}.  These depend on the
    request's grid only, so one computation serves the real outputs and
    every perturbed copy.  None of them touches the hook tables.
    """
    from adiawell import wavefield

    refs = {}
    for i, (req, out) in enumerate(zip(reqs, outs)):
        if req.reference in ("ray", "descent"):
            method = "ray" if req.reference == "ray" else "sd"
            s = wavefield.mode_inside(_params(req), req.t, out.x, method=method)
            refs[i] = (np.asarray(s.psi), np.asarray(s.est_error))
        elif req.reference == "edge":
            s = wavefield.mode_outside(_params(req), req.t, out.x[:1])
            refs[i] = (np.asarray(s.psi), np.asarray(s.est_error))
    return refs


def _reference_gap(outs, refs) -> tuple[Check, float]:
    """Every referenced point within the sum of both error bars.

    Also returns the largest gap scaled by the request's max |Psi|.
    """
    worst_ratio, worst_rel = 0.0, 0.0
    for i, (psi_ref, est_ref) in refs.items():
        out = outs[i]
        k = psi_ref.size
        gap = np.abs(out.psi[:k] - psi_ref)
        bars = out.est[:k] + est_ref
        live = gap > 0.0
        if np.any(live):
            worst_ratio = max(worst_ratio, float(np.max(gap[live] / bars[live])))
        worst_rel = max(worst_rel, float(np.max(gap)) / float(np.max(np.abs(out.psi))))
    return Check("reference_within_error_bars", worst_ratio <= 1.0, worst_ratio, 1.0), worst_rel


def _sweep_checks(prefix: str, out: Output, c_max: float) -> list[Check]:
    lo, hi = ORDER_RANGE
    const = float(np.max(out.sweep_err / out.sweep_eps))
    return [
        Check(f"{prefix}_order", lo <= out.order <= hi, out.order, hi),
        Check(f"{prefix}_constant", const <= c_max, const, c_max),
    ]


def _adiabatic_checks(reqs, outs) -> list[Check]:
    from adiawell import asymptotics

    worst = 0.0
    for req, out in zip(reqs, outs):
        if out.psi is None:
            continue
        lead = asymptotics.adiabatic_leading(_params(req), out.x, req.t)
        worst = max(worst, float(np.max(np.abs(out.psi - lead))) / req.eps)
    checks = [Check("adiabatic_first_order_constant", worst <= ADIABATIC_C, worst, ADIABATIC_C)]
    for req, out in zip(reqs, outs):
        if req.cmd == "sweep":
            checks += _sweep_checks("adiabatic_sweep", out, ADIABATIC_C)
    return checks


def _threshold_checks(reqs, outs) -> list[Check]:
    from adiawell import asymptotics

    c_t = c_a = 0.0
    for req, out in zip(reqs, outs):
        params, eps = _params(req), req.eps
        if req.tau <= tau_threshold(req.n):
            lead = asymptotics.transition_leading(params, out.x, req.t)
            z = asymptotics.scaled_threshold_distance(params, req.t)
            scale = eps ** (2.0 / 3.0) * (1.0 + math.sqrt(z))
            c_t = max(c_t, float(np.max(np.abs(out.psi - lead))) / scale)
        else:
            terms = asymptotics.aftermath_terms(params, out.x, req.t)
            lead = terms.t0 + terms.r0 + terms.g0
            scale = eps ** (7.0 / 6.0) + eps ** (2.0 / 3.0) / (1.0 + abs(terms.z_scaled)) ** 2.5
            c_a = max(c_a, float(np.max(np.abs(out.psi - lead))) / scale)
    return [
        Check("transition_constant", c_t <= TRANSITION_C, c_t, TRANSITION_C),
        Check("aftermath_constant", c_a <= AFTERMATH_C, c_a, AFTERMATH_C),
    ]


def _exterior_checks(reqs, outs) -> list[Check]:
    from adiawell import asymptotics

    worst, rates = 0.0, []
    for req, out in zip(reqs, outs):
        if req.cmd != "field":
            continue
        xs, psi = out.x[1:], out.psi[1:]
        lead = asymptotics.outside_leading(_params(req), xs, req.t)
        worst = max(worst, float(np.max(np.abs(psi - lead) / np.abs(psi))) / req.eps)
        rates.append(-req.eps * float(np.polyfit(xs, np.log(np.abs(psi)), 1)[0]))
    # the decay rate sees |Psi| only; the leading-term constant in the same
    # check is what a phase error or a conjugation trips
    rate_ok = all(0.0 < c < 1.0 for c in rates)
    checks = [Check("exterior_leading_and_decay", worst <= EXTERIOR_C and rate_ok,
                    worst, EXTERIOR_C)]
    for req, out in zip(reqs, outs):
        if req.cmd == "sweep":
            checks += _sweep_checks("outside_sweep", out, EXTERIOR_C)
    return checks


_PROPERTY_CHECKS = {
    "adiabatic_field": _adiabatic_checks,
    "threshold_field": _threshold_checks,
    "exterior_field": _exterior_checks,
}


def evaluate(workload: str, reqs, outs, refs) -> tuple[list[Check], dict[str, float]]:
    """All checks of a workload, and its two accuracy figures in digits.

    est_error_digits: -log10 of the largest est_error that a `field`
    request reports, scaled by that request's max |Psi|.
    ref_error_digits: -log10 of the largest gap to the reference, same
    scaling.
    """
    ref_check, ref_rel = _reference_gap(outs, refs)
    checks = [ref_check] + _PROPERTY_CHECKS[workload](reqs, outs)
    est_rel = max(
        float(np.max(out.est)) / float(np.max(np.abs(out.psi)))
        for out in outs if out.est is not None
    )
    accuracy = {
        "est_error_digits": -math.log10(est_rel),
        "ref_error_digits": -math.log10(ref_rel),
    }
    return checks, accuracy
