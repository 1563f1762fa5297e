"""Stability intervals for the uncertain gain delta from the locus of M(jw).

Implements the exact eigenvalue analysis plus the small gain, circle,
positive real, and Popov graphical criteria.  All graphical bounds come
from real-axis intercepts of enclosing geometry: a positive intercept x
maps to the lower bound -1/x and a negative intercept to the upper
bound -1/x.  The exact bounds are the same map applied to the real values
of M(jw) themselves, found as the jw-axis zeros of M(s) - M(-s).

Each graphical bound is the sup over w of one function of M(jw): |M|,
|M - x_c|, Re M, or Re[(1 + jqw) M].  Its candidate is the largest sample,
raised by one parabola step at each near-top sampled peak;
``_certified_max`` then raises it until the jw-axis zeros of one
para-Hermitian function certify it (Bruinsma and Steinbuch, Systems &
Control Letters 14, 1990; Boyd, Balakrishnan and Kabamba, MCSS 2, 1989).
The certificate holds over w = 0 and the sampled window [wmin, wmax], not
beyond it.  The circle's x_c and Popov's q are exact 1-D minimax
solutions over the points evaluated (``_minimax_line``); Popov's q is
re-solved with the certificate's points until the certified intercept is
within 2 * CERT_RTOL * |c| of the optimum over every slope (cutting
planes; Kelley, J. SIAM 8, 1960).
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

CRITERIA = ("exact", "small_gain", "circle", "positive_real", "popov")

# verify_interval flags a boundary delta* only inside an interval by more than
# this share of |delta*|: a graphical bound may sit on the exact one (Popov
# upper does on the aircraft), measured to within 3.4e-16 relative
INSIDE_RTOL = 1e-9

# a certified maximum is level + CERT_RTOL * |level|: nothing in the window
# exceeds it.  Each round evaluates PER_INTERVAL points inside each interval
# between consecutive level crossings; more than CERT_ROUNDS rounds warn
CERT_RTOL = 1e-8
PER_INTERVAL = 8
CERT_ROUNDS = 12
_FRACTIONS = np.arange(1, PER_INTERVAL + 1) / (PER_INTERVAL + 1)

# sampled local maxima within this share of the top sample are seeded by one
# parabola step in log w before the first certificate solve
SEED_RTOL = 1e-3

# Popov slopes are searched on [-Q_MAX, Q_MAX].  Where the optimum over q is a
# smooth minimum (one binding peak with w Im M = 0, as Popov upper on the
# aircraft) the cutting planes halve the slope bracket per round, so the gap
# shrinks about 4x per round: from an 8-point grid that takes 13 rounds.
# More than POPOV_ROUNDS rounds warn
Q_MAX = 1e4
POPOV_ROUNDS = 24


@dataclass(frozen=True, eq=False)
class LocusSummary:
    """Samples of M(jw) with the quantities the criteria consume."""

    omegas: np.ndarray          # sorted, starts at 0
    values: np.ndarray          # complex samples of M(jw)
    popov_ordinate: np.ndarray  # w * Im[M(jw)] per sample
    system: StateSpace = field(repr=False)   # M, for the certificates


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


def sample_locus(
    M: StateSpace,
    wmin: float = 1e-4,
    wmax: float = 1e4,
    n: int = 4000,
) -> LocusSummary:
    """Sample M(jw) at w = 0 and on n log-spaced points of [wmin, wmax]."""
    if wmin <= 0 or wmax <= wmin or n < 2:
        raise DimensionError("need 0 < wmin < wmax and n >= 2")
    if M.ninputs != 1 or M.noutputs != 1 or np.any(M.D != 0):
        raise DimensionError("M must be SISO and strictly proper")
    if not is_hurwitz(M.A):
        raise UnstableFixedPartError(
            "M(s) is not asymptotically stable; the graphical criteria "
            "presume a stable fixed part"
        )
    grid = np.concatenate([[0.0], np.logspace(math.log10(wmin), math.log10(wmax), n)])
    locus = freq_response(M, grid)
    values = locus.values
    values[0] = values[0].real   # real by construction for real matrices
    return LocusSummary(
        omegas=locus.omegas,
        values=values,
        popov_ordinate=locus.omegas * values.imag,
        system=M,
    )


def _parabola_seeds(omegas: np.ndarray, fv: np.ndarray) -> np.ndarray:
    """One parabola step in log w at each interior sampled local maximum of fv
    within SEED_RTOL of the top sample: the vertex of the parabola through
    the maximum and its two neighbours, kept between the neighbours."""
    top, mid = fv.max(), fv[1:-1]
    peak = (mid >= fv[:-2]) & (mid >= fv[2:]) & (mid >= top - SEED_RTOL * abs(top))
    i = np.flatnonzero(peak) + 1
    i = i[omegas[i - 1] > 0]   # w = 0 has no logarithm
    u0, u1, u2 = np.log(omegas[i - 1]), np.log(omegas[i]), np.log(omegas[i + 1])
    d0, d2 = fv[i] - fv[i - 1], fv[i] - fv[i + 1]
    den = (u1 - u0) * d2 + (u2 - u1) * d0   # >= 0 at a local maximum; 0 if flat
    ok = den > 0
    u = u1[ok] - 0.5 * ((u1 - u0) ** 2 * d2 - (u2 - u1) ** 2 * d0)[ok] / den[ok]
    return np.clip(np.exp(u), omegas[i - 1][ok], omegas[i + 1][ok])


def _certified_max(M: StateSpace, f, crossings, omegas: np.ndarray, values: np.ndarray):
    """(bound, w, M(jw)): sup of f(M(jw), w) over w = 0 and the window, certified.

    ``values`` are samples of M(jw) at ``omegas``, sorted, w = 0 and wmax =
    omegas[-1] among them.  ``crossings(level)`` returns the w >= 0 where
    f(M(jw), w) = level.  Start from the largest of the samples and of the
    parabola seeds (``_parabola_seeds``) and let tol = CERT_RTOL * |level|.
    Each round finds the crossings of level + tol up to wmax.  As f <= level
    at every point evaluated, f exceeds level + tol only strictly between
    two consecutive crossings, and then on the whole interval between them;
    so PER_INTERVAL points inside each such interval are evaluated, and the
    level is raised to their max.  Once nothing evaluated exceeds level +
    tol, or fewer than two crossings remain, level + tol bounds f on the
    window.  Also returns every point evaluated, the seeds among them, with
    its M(jw).
    """
    wmax = omegas[-1]
    fv = f(values, omegas)
    w = _parabola_seeds(omegas, fv)
    m = freq_values(M, w)
    level = float(np.concatenate([fv, f(m, w)]).max())
    tol = CERT_RTOL * abs(level)
    seen_w, seen_m = [w], [m]
    for _ in range(CERT_ROUNDS):
        z = crossings(level + tol)
        z = z[z <= wmax]
        if z.size < 2:
            break
        w = (z[:-1, None] + np.diff(z)[:, None] * _FRACTIONS).ravel()
        m = freq_values(M, w)
        seen_w.append(w)
        seen_m.append(m)
        top = float(f(m, w).max())
        if top <= level + tol:
            break
        level, tol = top, CERT_RTOL * abs(top)
    else:
        warnings.warn(
            f"maximum {level + tol!r} not certified after {CERT_ROUNDS} rounds",
            stacklevel=3,
        )
    return level + tol, np.concatenate(seen_w), np.concatenate(seen_m)


def _minimax_line(a: np.ndarray, b: np.ndarray, lo: float, hi: float, quad: bool = False):
    """Exact argmin, a float, of phi(x) = max_k (a_k - x b_k) (+ x^2 if ``quad``) on [lo, hi].

    phi is convex.  Keep two lines: L, active where phi falls, and R,
    active where it rises.  The minimizer of max(L, R) (their intersection,
    or with x^2 the vertex of one of them) is phi's once the line active
    there is no higher than the pair; otherwise that line replaces L or R
    by the sign of phi's slope along it.  Each step is one pass over the
    lines.  A step count past the number of lines, which rounding alone
    could cause, ends the search at the last point.
    """
    k2 = 2.0 if quad else 0.0

    def active(x):
        return int(np.argmax(a - x * b))

    L, R = active(lo), active(hi)
    if k2 * lo - b[L] >= 0:
        return float(lo)
    if k2 * hi - b[R] <= 0:
        return float(hi)
    for _ in range(a.size):
        x = 0.5 * b[L] if b[L] == b[R] else (a[L] - a[R]) / (b[L] - b[R])
        if quad:
            x = min(max(x, 0.5 * b[R]), 0.5 * b[L])
        k = active(x)
        slope = k2 * x - b[k]
        if a[k] - x * b[k] <= max(a[L] - x * b[L], a[R] - x * b[R]) or slope == 0:
            break
        if slope > 0:
            R = k
        else:
            L = k
    return float(x)


def _modulus_level(M: StateSpace, x_c: float):
    """(f, crossings) for f(M(jw), w) = |M(jw) - x_c|.

    ``crossings(r)`` returns the w where f = r: the jw-axis zeros of
    r^2 - G(-s) G(s) for G = M - x_c, realized as G(-s) in series after G(s).
    """
    H, b, c = M.A, M.B[:, 0], M.C[0]
    A = np.block([[H, np.zeros_like(H)], [np.outer(b, c), -H]])
    B = np.concatenate([b, -x_c * b])
    C = np.concatenate([x_c * c, c])
    return (lambda m, w: np.abs(m - x_c)), (lambda r: imaginary_zeros(A, B, C, r * r - x_c * x_c))


def _popov_level(M: StateSpace, q: float, side: int):
    """(f, crossings) for f(M(jw), w) = side * Re[(1 + jqw) M(jw)].

    ``crossings(L)`` returns the w where f = L: with F = (1 + qs) M =
    (H, b, c + q cH, q cb), the jw-axis zeros of 2L - side * (F(s) + F(-s)).
    """
    H, b, c = M.A, M.B[:, 0], M.C[0]
    c_f = c + q * (c @ H)
    zero = np.zeros_like(H)
    A = np.block([[H, zero], [zero, -H]])
    B = np.concatenate([b, b])
    C = -side * np.concatenate([c_f, -c_f])
    asymptote = side * q * (c @ b)   # f as w -> inf
    return (
        lambda m, w: side * (m.real - q * w * m.imag),
        lambda level: imaginary_zeros(A, B, C, 2.0 * (level - asymptote)),
    )


def small_gain_bounds(summary: LocusSummary) -> StabilityInterval:
    """Smallest origin-centered circle enclosing the locus of M(jw).

    The radius r_sg is the peak magnitude of M; the interval is the
    symmetric (-1/r_sg, +1/r_sg).
    """
    M = summary.system
    r_sg = _certified_max(M, *_modulus_level(M, 0.0), summary.omegas, summary.values)[0]
    return StabilityInterval(
        lower=-1.0 / r_sg,
        upper=1.0 / r_sg,
        criterion="small_gain",
        witnesses={"r_sg": r_sg},
    )


def circle_bounds(summary: LocusSummary, center: str = "optimal") -> StabilityInterval:
    """Smallest locus-enclosing circle centered on the real axis.

    ``center="optimal"`` picks the real-axis center that minimizes the
    radius over the samples, exactly (``_minimax_line`` on the squared
    radius; this reproduces the reference results); ``center="midpoint"``
    uses the midpoint of the extreme sampled real parts instead.  The
    radius at that center is certified on the continuous locus.
    """
    X = summary.values.real
    if center == "optimal":
        # r^2 = x^2 + max_k (|M_k|^2 - 2 X_k x): its minimizer lies between
        # the extreme real parts
        x_c = _minimax_line(
            np.abs(summary.values) ** 2, 2.0 * X, float(X.min()), float(X.max()), quad=True
        )
    elif center == "midpoint":
        x_c = 0.5 * float(X.max() + X.min())
    else:
        raise ValueError(f"unknown center mode {center!r}")

    M = summary.system
    r_c = _certified_max(M, *_modulus_level(M, x_c), summary.omegas, summary.values)[0]
    return _interval_from_intercepts(
        pos=x_c + r_c,
        neg=x_c - r_c,
        criterion="circle",
        witnesses={"x_c": x_c, "r_c": r_c, "center_mode": center},
    )


def positive_real_bounds(summary: LocusSummary) -> StabilityInterval:
    """Vertical lines at the extreme real parts of the locus."""
    M, omegas, values = summary.system, summary.omegas, summary.values
    x_max = _certified_max(M, *_popov_level(M, 0.0, +1), omegas, values)[0]
    x_min = -_certified_max(M, *_popov_level(M, 0.0, -1), omegas, values)[0]
    return _interval_from_intercepts(
        pos=x_max,
        neg=x_min,
        criterion="positive_real",
        witnesses={"x_max": x_max, "x_min": x_min},
    )


def popov_bounds(summary: LocusSummary, slope_search: bool = True) -> StabilityInterval:
    """Popov lines on the plot of w*Im[M(jw)] vs Re[M(jw)].

    With f(q, w) = Re[M(jw)] - q*w*Im[M(jw)], the right line intercept is
    c+ = min_q sup_w f and the left line intercept is c- = max_q inf_w f,
    over |q| <= Q_MAX.  Each side is solved by ``_optimize_popov_line``:
    the reported intercept is certified at the reported slope, so every
    line (q, c) encloses the continuous locus on the window, and
    ``gap_plus``/``gap_minus`` bound how far c lies from the optimum over
    every slope.  ``slope_search=False`` forces vertical lines, reproducing
    the positive real criterion.
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

    q_plus, c_plus, gap_plus = _optimize_popov_line(summary, side=+1)
    q_minus, c_minus, gap_minus = _optimize_popov_line(summary, side=-1)
    return _interval_from_intercepts(
        pos=c_plus,
        neg=c_minus,
        criterion="popov",
        witnesses={
            "q_plus": q_plus,
            "c_plus": c_plus,
            "gap_plus": gap_plus,
            "q_minus": q_minus,
            "c_minus": c_minus,
            "gap_minus": gap_minus,
            "vertical": False,
        },
    )


def _optimize_popov_line(summary: LocusSummary, side: int):
    """(q, c, gap): min_q sup_w f for side=+1, max_q inf_w f for side=-1.

    Over the set S of points evaluated so far, phi_S(q) = max_k side * f(q,
    w_k) is convex and lies below the sup over the window, so min phi_S
    bounds the optimum from below while the certified c(q) bounds it from
    above.  Each round sets q to the exact argmin of phi_S
    (``_minimax_line``), certifies c(q), and stops once gap = c(q) - min
    phi_S <= 2 * CERT_RTOL * |c|; otherwise the certificate's points join
    S, kept sorted so that wmax stays omegas[-1].  A loop that ends on
    POPOV_ROUNDS, or at |q| = Q_MAX with phi_S still falling beyond it,
    warns that the line is not shown optimal.
    """
    M, omegas, values = summary.system, summary.omegas, summary.values

    def argmin(omegas, values):
        a, b = side * values.real, side * omegas * values.imag
        q = _minimax_line(a, b, -Q_MAX, Q_MAX)
        k = int(np.argmax(a - q * b))
        # min phi_S over the range bounds every q unless it sits at an end
        # where the line active still falls outward
        return q, float(a[k] - q * b[k]), abs(q) == Q_MAX and q * b[k] > 0

    q_next, low, outward = argmin(omegas, values)
    for _ in range(POPOV_ROUNDS):
        q = q_next
        c, w_seen, m_seen = _certified_max(M, *_popov_level(M, q, side), omegas, values)
        omegas, values = np.concatenate([omegas, w_seen]), np.concatenate([values, m_seen])
        order = np.argsort(omegas, kind="stable")
        omegas, values = omegas[order], values[order]
        q_next, low, outward = argmin(omegas, values)
        gap = c - low
        if gap <= 2 * CERT_RTOL * abs(c):
            break
    if gap > 2 * CERT_RTOL * abs(c) or outward:
        why = (f"the sampled intercept still falls past |q| = {Q_MAX!r}" if outward
               else f"gap {gap!r} after {POPOV_ROUNDS} rounds")
        warnings.warn(f"popov line (q={q!r}, c={side * c!r}) not shown optimal: {why}", stacklevel=3)
    return q, side * c, gap


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
