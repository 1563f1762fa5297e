"""Stability intervals for the uncertain gain delta from the locus of M(jw).

Implements the exact eigenvalue analysis plus the small gain, circle,
positive real, and Popov graphical criteria.  All graphical bounds come
from real-axis intercepts of enclosing geometry: a positive intercept x
maps to the lower bound -1/x and a negative intercept to the upper
bound -1/x.  The exact bounds are the same map applied to the real values
of M(jw) themselves, found as the jw-axis zeros of M(s) - M(-s).
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, SoundnessError, UnstableFixedPartError
from .lti import STACK_BYTES, StateSpace, freq_response, freq_values, imaginary_zeros, is_hurwitz
from .mdelta import MDeltaModel, closed_loop_matrix

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# fixed Popov-slope probes used while sampling, so the base grid is
# refined near the features every criterion reads off later
PROBE_SLOPES = (-10.0, -1.0, -0.1, -0.01, 0.01, 0.1, 1.0, 10.0)

CRITERIA = ("exact", "small_gain", "circle", "positive_real", "popov")

# verify_interval flags a boundary delta* only inside an interval by more than
# this share of |delta*|: a graphical bound may sit on the exact one (Popov
# upper does on the aircraft), measured to within 3.4e-16 relative
INSIDE_RTOL = 1e-9


def golden_min(f, a: float, b: float, rel_tol: float = 1e-9, max_iter: int = 200):
    """Golden-section minimum of a unimodal f on [a, b]; returns (x, f(x))."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if abs(b - a) <= rel_tol * max(abs(a), abs(b), 1e-300):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def golden_max(f, a: float, b: float, **kw):
    x, fneg = golden_min(lambda t: -f(t), a, b, **kw)
    return x, -fneg


def golden_min_lockstep(f, a, b, rel_tol: float = 1e-9, max_iter: int = 200):
    """``golden_min`` on every bracket [a[k], b[k]] at once.

    ``f(k, x)`` returns the objective of brackets ``k`` at points ``x``
    (arrays); it is called once per iteration for all brackets still
    searching.  Each bracket keeps golden_min's update and stop rules, so
    its (x, f(x)) equals golden_min's on that bracket alone.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    if a.size == 0:
        return a, a.copy()
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    live = np.arange(a.size)
    fc, fd = np.split(f(np.concatenate([live, live]), np.concatenate([c, d])), 2)
    for _ in range(max_iter):
        wide = np.abs(b[live] - a[live]) > rel_tol * np.maximum(
            np.maximum(np.abs(a[live]), np.abs(b[live])), 1e-300
        )
        live = live[wide]
        if live.size == 0:
            break
        left = fc[live] < fd[live]
        lt, rt = live[left], live[~left]
        b[lt], d[lt], fd[lt] = d[lt], c[lt], fc[lt]
        c[lt] = b[lt] - _INVPHI * (b[lt] - a[lt])
        a[rt], c[rt], fc[rt] = c[rt], d[rt], fd[rt]
        d[rt] = a[rt] + _INVPHI * (b[rt] - a[rt])
        fnew = f(live, np.where(left, c[live], d[live]))
        fc[lt] = fnew[left]
        fd[rt] = fnew[~left]
    pick = fc < fd
    return np.where(pick, c, d), np.where(pick, fc, fd)


@dataclass(frozen=True, eq=False)
class LocusSummary:
    """Refined samples of M(jw) with the quantities the criteria consume."""

    omegas: np.ndarray          # sorted, starts at 0
    values: np.ndarray          # complex samples of M(jw)
    popov_ordinate: np.ndarray  # w * Im[M(jw)] per sample
    x_max: float                # max Re over the locus
    x_min: float                # min Re over the locus
    evaluator: object = field(repr=False)   # callable w -> complex M(jw)
    refine_tol: float = 1e-8


@dataclass(frozen=True)
class StabilityInterval:
    """Admissible range of the c.g. shift delta under one criterion."""

    lower: float
    upper: float
    criterion: str
    witnesses: dict
    lower_unbounded: bool = False
    upper_unbounded: bool = False


@dataclass(frozen=True)
class VerificationReport:
    criterion: str
    passed: bool
    n_checked: int
    failures: tuple   # of (delta, max_real_part) at the sampled deltas
    crossings: tuple = ()   # of (delta, omega): eigenvalue on the boundary
    notes: str = ""


def _evaluator(M: StateSpace):
    def ev(w: float) -> complex:
        return complex(M.evaluate(1j * w)[0, 0])
    return ev


def _local_max_indices(y: np.ndarray) -> np.ndarray:
    inner = (y[1:-1] >= y[:-2]) & (y[1:-1] >= y[2:])
    return np.nonzero(inner)[0] + 1


def sample_locus(
    M: StateSpace,
    wmin: float = 1e-4,
    wmax: float = 1e4,
    n: int = 4000,
    refine_tol: float = 1e-8,
) -> LocusSummary:
    """Sample M(jw) on a log grid and refine near the decisive features.

    The base grid of n log-spaced points on [wmin, wmax] is augmented by
    w = 0 and adaptively refined.  Local extrema of Re, -Re, |M|, and a
    fixed set of Popov-slope probes Re - q*w*Im are polished by
    golden-section search on the continuous response, all in lockstep: one
    stacked response per iteration across every bracket
    (``golden_min_lockstep``).
    """
    if wmin <= 0 or wmax <= wmin or n < 2:
        raise DimensionError("need 0 < wmin < wmax and n >= 2")
    if M.ninputs != 1 or M.noutputs != 1 or np.any(M.D != 0):
        raise DimensionError("M must be SISO and strictly proper")
    if not is_hurwitz(M.A):
        raise UnstableFixedPartError(
            "M(s) is not asymptotically stable; the graphical criteria "
            "presume a stable fixed part"
        )
    ev = _evaluator(M)
    grid = np.logspace(math.log10(wmin), math.log10(wmax), n)
    locus = freq_response(M, grid)
    om = locus.omegas
    vals = locus.values

    # w = 0 sample: real by construction for real matrices
    extra_w: list[float] = [0.0]
    extra_v: list[complex] = [complex(ev(0.0).real)]

    # extrema polishing: each local maximum on the stored grid of Re, -Re,
    # |M| and the probe functionals Re - q*w*Im brackets one golden-section
    # search on the continuous response; all of them run in lockstep
    tracks = [vals.real, -vals.real, np.abs(vals)]
    tracks += [vals.real - q * om * vals.imag for q in PROBE_SLOPES]
    peaks = [(k, i) for k, t in enumerate(tracks) for i in _local_max_indices(t)]
    kind, at = np.array(peaks, dtype=int).reshape(-1, 2).T
    magnitude = kind == 2
    sign = np.where(kind == 1, -1.0, 1.0)
    slope = np.array([0.0, 0.0, 0.0, *PROBE_SLOPES])[kind]

    def minus_functional(j, w):
        m = freq_values(M, w)
        return np.where(
            magnitude[j],
            -np.hypot(m.real, m.imag),
            -sign[j] * (m.real - slope[j] * w * m.imag),
        )

    wstar, _ = golden_min_lockstep(
        minus_functional, om[at - 1], om[at + 1], rel_tol=refine_tol * 1e-1
    )
    extra_w.extend(wstar)
    extra_v.extend(freq_values(M, wstar))

    all_w = np.concatenate([om, np.array(extra_w)])
    all_v = np.concatenate([vals, np.array(extra_v, dtype=complex)])
    order = np.argsort(all_w, kind="stable")
    all_w = all_w[order]
    all_v = all_v[order]
    keep = np.concatenate([[True], np.diff(all_w) > 0])
    all_w = all_w[keep]
    all_v = all_v[keep]

    return LocusSummary(
        omegas=all_w,
        values=all_v,
        popov_ordinate=all_w * all_v.imag,
        x_max=float(all_v.real.max()),
        x_min=float(all_v.real.min()),
        evaluator=ev,
        refine_tol=refine_tol,
    )


def _bracket(omegas: np.ndarray, i: int):
    lo = omegas[i - 1] if i > 0 else omegas[i]
    hi = omegas[i + 1] if i + 1 < omegas.size else omegas[i]
    return lo, hi


def _polish_max(summary: LocusSummary, per_sample: np.ndarray, cont):
    """Max of a functional: sample argmax polished on the continuous curve."""
    i = int(np.argmax(per_sample))
    best = float(per_sample[i])
    lo, hi = _bracket(summary.omegas, i)
    if hi > lo:
        _, val = golden_max(cont, lo, hi, rel_tol=1e-10)
        best = max(best, float(val))
    return best


def small_gain_bounds(summary: LocusSummary) -> StabilityInterval:
    """Smallest origin-centered circle enclosing the locus of M(jw).

    The radius r_sg is the peak magnitude of M; the interval is the
    symmetric (-1/r_sg, +1/r_sg).
    """
    ev = summary.evaluator
    r_sg = _polish_max(summary, np.abs(summary.values), lambda w: abs(ev(w)))
    return StabilityInterval(
        lower=-1.0 / r_sg,
        upper=1.0 / r_sg,
        criterion="small_gain",
        witnesses={"r_sg": r_sg},
    )


def circle_bounds(summary: LocusSummary, center: str = "optimal") -> StabilityInterval:
    """Smallest locus-enclosing circle centered on the real axis.

    ``center="optimal"`` picks the real-axis center minimizing the radius
    (this reproduces the reference results); ``center="midpoint"`` uses
    the midpoint of the extreme real parts instead.
    """
    X = summary.values.real
    Y = summary.values.imag
    ev = summary.evaluator

    def radius_samples(xc: float) -> float:
        return float(np.sqrt((X - xc) ** 2 + Y ** 2).max())

    if center == "optimal":
        span = summary.x_max - summary.x_min
        x_c, _ = golden_min(
            radius_samples,
            summary.x_min - span,
            summary.x_max + span,
            rel_tol=1e-10,
        )
    elif center == "midpoint":
        x_c = 0.5 * (summary.x_max + summary.x_min)
    else:
        raise ValueError(f"unknown center mode {center!r}")

    def dist(w: float) -> float:
        mv = ev(w)
        return math.hypot(mv.real - x_c, mv.imag)

    # the optimal circle touches the locus at two or more near-equal peaks,
    # so every one that may bind is polished
    d = np.sqrt((X - x_c) ** 2 + Y ** 2)
    r_c = max([float(d.max())] + _polish_binding_peaks(summary.omegas, d, dist))
    return _interval_from_intercepts(
        pos=x_c + r_c,
        neg=x_c - r_c,
        criterion="circle",
        witnesses={"x_c": x_c, "r_c": r_c, "center_mode": center},
    )


def positive_real_bounds(summary: LocusSummary) -> StabilityInterval:
    """Vertical lines at the extreme real parts of the locus."""
    ev = summary.evaluator
    x_max = _polish_max(summary, summary.values.real, lambda w: ev(w).real)
    x_min = -_polish_max(summary, -summary.values.real, lambda w: -ev(w).real)
    return _interval_from_intercepts(
        pos=x_max,
        neg=x_min,
        criterion="positive_real",
        witnesses={"x_max": x_max, "x_min": x_min},
    )


def popov_bounds(summary: LocusSummary, slope_search: bool = True) -> StabilityInterval:
    """Popov lines on the plot of w*Im[M(jw)] vs Re[M(jw)].

    With f(q, w) = Re[M(jw)] - q*w*Im[M(jw)], the right line intercept is
    c+ = min_q sup_w f and the left line intercept is c- = max_q inf_w f.
    Both are optimized by a coarse log-spaced scan over q followed by
    golden-section refinement (the objectives are convex/concave in q).
    Each reported intercept is the extremum of the continuous response at
    the reported slope, so every line (q, c) encloses the continuous
    locus, not only its samples.
    ``slope_search=False`` forces vertical lines, reproducing the
    positive real criterion.
    """
    if not slope_search:
        pr = positive_real_bounds(summary)
        return StabilityInterval(
            lower=pr.lower,
            upper=pr.upper,
            criterion="popov",
            witnesses={
                "q_plus": None,
                "c_plus": pr.witnesses["x_max"],
                "q_minus": None,
                "c_minus": pr.witnesses["x_min"],
                "vertical": True,
            },
            lower_unbounded=pr.lower_unbounded,
            upper_unbounded=pr.upper_unbounded,
        )

    ev = summary.evaluator
    q_plus, c_plus = _optimize_popov_line(summary, ev, side=+1)
    q_minus, c_minus = _optimize_popov_line(summary, ev, side=-1)
    return _interval_from_intercepts(
        pos=c_plus,
        neg=c_minus,
        criterion="popov",
        witnesses={
            "q_plus": q_plus,
            "c_plus": c_plus,
            "q_minus": q_minus,
            "c_minus": c_minus,
            "vertical": False,
        },
    )


def _optimize_popov_line(summary: LocusSummary, ev, side: int):
    """min_q of sup_w [Re - q*w*Im] for side=+1; max_q of inf_w for side=-1."""
    omegas = summary.omegas
    X = summary.values.real
    OY = summary.popov_ordinate

    def objective(q: float) -> float:
        # side=+1: sup of f; side=-1: -inf of f = sup of -f
        return float((side * (X - q * OY)).max())

    qgrid = np.concatenate(
        [-np.logspace(4, -4, 81), [0.0], np.logspace(-4, 4, 81)]
    )
    coarse = np.array([objective(q) for q in qgrid])
    i = int(np.argmin(coarse))
    a = qgrid[max(i - 1, 0)]
    b = qgrid[min(i + 1, qgrid.size - 1)]
    q_opt, _ = golden_min(objective, a, b, rel_tol=1e-6)

    # polish every near-binding peak at q_opt on the continuous response and
    # re-optimize q over the samples plus every response the polish saw,
    # until the continuous extremum at q_opt is within 1e-9 of the sampled
    # one; the reported intercept is always that continuous extremum.  Of
    # samples within 1e-9 relative only the first is kept: two golden iterates
    # an ulp apart make a false sampled peak whose bracket misses the true one
    for attempt in range(9):
        f = side * (X - q_opt * OY)
        seen = {}

        def cont(w: float) -> float:
            mv = seen[w] = ev(w)
            return side * (mv.real - q_opt * w * mv.imag)

        c_opt = max([float(f.max())] + _polish_binding_peaks(omegas, f, cont))
        if attempt == 8 or c_opt - f.max() <= 1e-9 * max(1.0, abs(c_opt)):
            break
        w_seen = np.array(list(seen))
        m_seen = np.array(list(seen.values()))
        omegas, k = np.unique(np.concatenate([omegas, w_seen]), return_index=True)
        apart = np.concatenate([[True], np.diff(omegas) > 1e-9 * omegas[1:]])
        omegas, k = omegas[apart], k[apart]
        X = np.concatenate([X, m_seen.real])[k]
        OY = np.concatenate([OY, w_seen * m_seen.imag])[k]
        q_opt, _ = golden_min(
            objective, q_opt - abs(q_opt) - 1e-3, q_opt + abs(q_opt) + 1e-3,
            rel_tol=1e-8,
        )
    return q_opt, side * c_opt


def _polish_binding_peaks(omegas: np.ndarray, f: np.ndarray, cont):
    """Golden-polish each sampled peak of f that may reach max(f) between samples.

    A peak's rise above its sample is estimated by its drop to the lower
    neighbour, which bounds the rise of a parabola through three equally
    spaced samples; the estimate is doubled for margin.  Returns the
    polished peak values.
    """
    top = f.max()
    cands = set(_local_max_indices(f).tolist()) | {int(np.argmax(f))}
    peaks = []
    for j in sorted(cands):
        lo, hi = _bracket(omegas, j)
        rise = f[j] - min(f[max(j - 1, 0)], f[min(j + 1, f.size - 1)])
        if hi > lo and f[j] + 2.0 * rise >= top:
            peaks.append(float(golden_max(cont, lo, hi, rel_tol=1e-8)[1]))
    return peaks


def _interval_from_intercepts(pos, neg, criterion, witnesses):
    lower_unbounded = pos <= 0
    upper_unbounded = neg >= 0
    if lower_unbounded or upper_unbounded:
        warnings.warn(
            f"{criterion}: intercept of the wrong sign; side reported as "
            "unbounded",
            stacklevel=3,
        )
    return StabilityInterval(
        lower=-math.inf if lower_unbounded else -1.0 / pos,
        upper=math.inf if upper_unbounded else -1.0 / neg,
        criterion=criterion,
        witnesses=witnesses,
        lower_unbounded=lower_unbounded,
        upper_unbounded=upper_unbounded,
    )


# ---------------------------------------------------------------------------
# Exact analysis


def _max_real_part(model: MDeltaModel, delta: float) -> float:
    return float(np.linalg.eigvals(closed_loop_matrix(model, delta)).real.max())


def _max_real_parts(model: MDeltaModel, deltas: np.ndarray) -> np.ndarray:
    """_max_real_part of each delta: stacked eigvals, STACK_BYTES at a time."""
    size = max(1, STACK_BYTES // (8 * model.H.size))
    return np.concatenate([
        np.linalg.eigvals(closed_loop_matrix(model, deltas[lo : lo + size, None, None]))
        .real.max(axis=1)
        for lo in range(0, deltas.size, size)
    ])


def _bisect_boundary(model, stable: float, unstable: float, tol: float, margin: float):
    while abs(unstable - stable) > tol:
        mid = 0.5 * (stable + unstable)
        if _max_real_part(model, mid) < -margin:
            stable = mid
        else:
            unstable = mid
    return 0.5 * (stable + unstable)


# crossing sets per model and margin: models are immutable, and an entry
# goes when its model does
_CROSSINGS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _axis_crossings(model: MDeltaModel, margin: float) -> tuple:
    """Every (w, x) with x = M(jw - margin) real, w >= 0 and |x| > 1e-12.

    These are w = 0 and the jw-axis zeros of M(s) - M(-s), realized as
    (diag(H, -H), [b; b], [c, c]) with H shifted to H + margin*I.  The set
    is computed once per model and margin.
    """
    memo = _CROSSINGS.setdefault(model, {})
    if margin in memo:
        return memo[margin]
    M = model.M
    if margin != 0.0:
        M = StateSpace(M.A + margin * np.eye(M.nstates), M.B, M.C, M.D)
    H, b, c = M.A, M.B[:, 0], M.C[0]
    zero = np.zeros_like(H)
    w = imaginary_zeros(
        np.block([[H, zero], [zero, -H]]), np.concatenate([b, b]), np.concatenate([c, c])
    )
    w = np.concatenate([[0.0], w[w > 0]])
    x = freq_values(M, w).real
    memo[margin] = tuple((float(wk), float(xk)) for wk, xk in zip(w, x) if abs(xk) > 1e-12)
    return memo[margin]


def exact_bounds(
    model: MDeltaModel,
    summary: LocusSummary | None = None,
    margin: float = 0.0,
) -> StabilityInterval:
    """Maximal open interval of delta around 0 with stable H + delta*Qcal.

    An eigenvalue of H + delta*Qcal lies on the line Re s = -margin exactly
    when delta = -1/x for a real value x of M(jw - margin) (zero exclusion;
    Barmish, New Tools for Robustness of Linear Systems, 1994).  So each
    bound is the nearest such -1/x on its side of 0, and a side with none is
    unbounded.  The witnesses ``upper_crossing`` and ``lower_crossing`` are
    the (w, x) of each bound.

    ``summary`` is ignored: the interval is read off the realization of M,
    not off a sampled locus.  It stays for callers that pass it
    positionally.
    """
    if _max_real_part(model, 0.0) >= -margin:
        raise UnstableFixedPartError("nominal closed loop is not stable")
    crossings = _axis_crossings(model, margin)
    upper, up_cross = min(
        ((-1.0 / x, (w, x)) for w, x in crossings if x < 0), default=(math.inf, None)
    )
    lower, lo_cross = max(
        ((-1.0 / x, (w, x)) for w, x in crossings if x > 0), default=(-math.inf, None)
    )
    return StabilityInterval(
        lower=lower,
        upper=upper,
        criterion="exact",
        witnesses={"upper_crossing": up_cross, "lower_crossing": lo_cross},
        lower_unbounded=lo_cross is None,
        upper_unbounded=up_cross is None,
    )


def scan_exact_bounds(
    model: MDeltaModel,
    lo: float = -100.0,
    hi: float = 10.0,
    step: float = 0.01,
    delta_tol: float = 1e-6,
    margin: float = 0.0,
) -> StabilityInterval:
    """Exact interval by brute-force outward scan plus bisection.

    Independent of the frequency-domain locus; used as the second route
    that must agree with exact_bounds.
    """
    if _max_real_part(model, 0.0) >= -margin:
        raise UnstableFixedPartError("nominal closed loop is not stable")

    def march(limit, sign):
        d = 0.0
        while sign * d < sign * limit:
            nxt = d + sign * step
            if sign * nxt > sign * limit:
                nxt = limit
            if _max_real_part(model, nxt) >= -margin:
                return _bisect_boundary(model, d, nxt, delta_tol, margin)
            d = nxt
        return None

    upper = march(hi, +1)
    lower = march(lo, -1)
    return StabilityInterval(
        lower=-math.inf if lower is None else lower,
        upper=math.inf if upper is None else upper,
        criterion="exact",
        witnesses={"route": "scan", "step": step},
        lower_unbounded=lower is None,
        upper_unbounded=upper is None,
    )


def verify_interval(
    model: MDeltaModel,
    interval: StabilityInterval,
    n_samples: int,
    margin: float = 0.0,
) -> VerificationReport:
    """Audit an interval: every delta in it must keep H + delta*Qcal stable.

    Two routes.  ``crossings`` holds each delta* = -1/x, x a real value of
    M(jw - margin), that lies inside the interval by more than
    INSIDE_RTOL*|delta*|: an eigenvalue sits on Re s = -margin there (see
    exact_bounds), so this verdict covers the whole interval.
    ``failures`` holds the n_samples evenly spaced interior deltas that
    are not stable; for the exact interval the matrix must additionally be
    unstable just outside each finite bound (at bound +- 1e-3*|bound|).
    The report passes only if both are empty.
    """
    if interval.lower_unbounded or interval.upper_unbounded:
        raise ValueError("verify_interval requires a finite interval")
    crossings = tuple(
        (-1.0 / x, w)
        for w, x in _axis_crossings(model, margin)
        if interval.lower + INSIDE_RTOL / abs(x) < -1.0 / x < interval.upper - INSIDE_RTOL / abs(x)
    )
    if n_samples == 0:
        warnings.warn(
            f"{interval.criterion}: n_samples = 0, the sampled audit is vacuous",
            stacklevel=2,
        )
        return VerificationReport(
            criterion=interval.criterion,
            passed=not crossings,
            n_checked=0,
            failures=(),
            crossings=crossings,
            notes="vacuous (no samples)",
        )
    if interval.upper <= interval.lower:
        return VerificationReport(
            criterion=interval.criterion,
            passed=True,
            n_checked=0,
            failures=(),
            notes="degenerate interval",
        )
    deltas = np.linspace(interval.lower, interval.upper, n_samples + 2)[1:-1]
    failures = [
        (float(d), float(mr))
        for d, mr in zip(deltas, _max_real_parts(model, deltas))
        if mr >= -margin
    ]
    notes = ""
    if interval.criterion == "exact":
        for bound in (interval.lower, interval.upper):
            outside = bound * (1 + 1e-3) if bound != 0 else 1e-3
            if _max_real_part(model, outside) < -margin:
                failures.append((outside, _max_real_part(model, outside)))
                notes = "expected instability just outside the exact bound"
    return VerificationReport(
        criterion=interval.criterion,
        passed=not (failures or crossings),
        n_checked=len(deltas),
        failures=tuple(failures),
        crossings=crossings,
        notes=notes,
    )


def require_sound(report: VerificationReport) -> None:
    if report.crossings:
        d, w = report.crossings[0]
        raise SoundnessError(
            f"{report.criterion} interval contains delta = {d}, where an "
            f"eigenvalue reaches the stability boundary at w = {w}"
        )
    if not report.passed:
        d, mr = report.failures[0]
        raise SoundnessError(
            f"{report.criterion} interval failed verification at delta = {d} "
            f"(max eigenvalue real part {mr:.3e})"
        )
