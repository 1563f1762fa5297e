"""Stability intervals for the uncertain gain delta from the locus of M(jw).

Implements the exact eigenvalue analysis plus the small gain, circle,
positive real, and Popov graphical criteria.  All graphical bounds come
from real-axis intercepts of enclosing geometry: a positive intercept x
maps to the lower bound -1/x and a negative intercept to the upper
bound -1/x.  The exact bounds are the same map applied to the real values
of M(jw) themselves, found as the jw-axis zeros of M(s) - M(-s).

Each graphical bound is the sup over w of one function of M(jw) with one
parameter x, pinned or searched, in one of two families: |M - x| for a
circle centred at x on the real axis (``_circle_radius``; small gain pins x
= 0, the circle at its sampled-minimax center) and side * Re[(1 + jxw) M]
for a Popov line of slope x (``_popov_line``; positive real pins x = 0,
Popov searches the x that minimizes the sup).  One loop, ``_certified_max``,
computes every such sup.  Each round takes x from every point evaluated so
far, a constant where x is pinned and for Popov the exact argmin of their
lower model (``_minimax_line``; Kelley's cutting planes, J. SIAM 8, 1960),
raises the level to the largest of those points, and makes one crossing
solve: the jw-axis zeros of one para-Hermitian function either certify the
level or bound the intervals where the next points go, evenly in arctan(ln
w/w0) for w0 the geometric mean of M's pole moduli (``_interior``; Bruinsma
and Steinbuch, Systems & Control Letters 14, 1990; Boyd, Balakrishnan and
Kabamba, MCSS 2, 1989).  From the samples, a parabola step at each sampled
peak and M's real-axis crossings with a point to either side, these rounds
find the locus, at [1e-300, 1e300] too: it holds over [0, wmax].
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, UnstableFixedPartError
from .lti import (STACK_BYTES, FrequencyLocus, StateSpace, freq_response, freq_values,
                  imaginary_zeros)
from .mdelta import MDeltaModel, closed_loop_matrix

CRITERIA = ("exact", "small_gain", "circle", "positive_real", "popov")

# verify_interval flags a boundary delta* only inside an interval by more than
# this share of |delta*|: a graphical bound may sit on the exact one (Popov
# upper does on the aircraft), measured to within 3.4e-16 relative
INSIDE_RTOL = 1e-9

# an exact bound is marginal when the largest real part there is within
# MARGINAL_RTOL * max(1, |H|_1) of 0: measured within 8.7e-15, and 1.7e-10 to
# 5e-7 at a bound moved by 1e-6 relative, on the aircraft and hard models
MARGINAL_RTOL = 1e-10

# a certified maximum is level + CERT_RTOL * |level|: nothing on [0, wmax]
# exceeds it.  Each round evaluates PER_INTERVAL points inside each interval
# between 0, the level's crossings and wmax; more than CERT_ROUNDS rounds warn
CERT_RTOL = 1e-8
PER_INTERVAL = 8
CERT_ROUNDS = 12
_FRACTIONS = np.arange(1, PER_INTERVAL + 1) / (PER_INTERVAL + 1)

# certificates start at each real-axis crossing w* of M and w*(1 +- SEED_EPS),
# where popov_bounds reads the sign of w Im M beside w*
SEED_EPS = 1e-6

# verify_interval's eigen solves run on two threads when two CPUs are free
# and each half holds more than GIL_FREE_SIZE / n matrices n x n.  numpy
# drops the GIL for a stacked eigvals of k of them only when k*n exceeds
# GIL_FREE_SIZE (its NPY_BEGIN_THREADS_THRESHOLDED); smaller halves would run
# in turn, not side by side, and pay a thread start (0.35 ms to 9 ms) for
# nothing.  On the bundled 8-state model a 50-sample audit stays on one
# thread and a 200-sample one splits; 50 samples split from n = 21
GIL_FREE_SIZE = 500


@dataclass(frozen=True)
class StabilityInterval:
    """Admissible range of the c.g. shift delta under one criterion."""

    lower: float
    upper: float
    criterion: str
    witnesses: dict

    @property
    def lower_unbounded(self) -> bool:
        return self.lower == -math.inf

    @property
    def upper_unbounded(self) -> bool:
        return self.upper == math.inf


@dataclass(frozen=True)
class VerificationReport:
    criterion: str
    passed: bool
    n_checked: int
    failures: tuple   # of (delta, max_real_part) at the sampled deltas
    crossings: tuple = ()   # of (delta, omega): eigenvalue on the boundary


def sample_locus(
    M: StateSpace,
    wmin: float = 1e-4,
    wmax: float = 1e4,
    n: int = 4000,
) -> FrequencyLocus:
    """Sample M(jw) at w = 0 and on n log-spaced points of [wmin, wmax].

    The locus carries M as ``system``, for the certificates."""
    if wmin <= 0 or wmax <= wmin or n < 2:
        raise DimensionError("need 0 < wmin < wmax and n >= 2")
    if M.ninputs != 1 or M.noutputs != 1 or np.any(M.D != 0):
        raise DimensionError("M must be SISO and strictly proper")
    if not np.all(M.poles.real < 0.0):
        raise UnstableFixedPartError(
            "M(s) is not asymptotically stable; the graphical criteria "
            "presume a stable fixed part"
        )
    grid = np.concatenate([[0.0], np.logspace(math.log10(wmin), math.log10(wmax), n)])
    return freq_response(M, grid)


def _parabola_seeds(omegas: np.ndarray, fv: np.ndarray) -> np.ndarray:
    """One parabola step in log w at each interior sampled local maximum of fv:
    the vertex of the parabola through the maximum and its two neighbours,
    kept between the neighbours."""
    mid = fv[1:-1]
    i = np.flatnonzero((mid >= fv[:-2]) & (mid >= fv[2:])) + 1
    i = i[omegas[i - 1] > 0]   # w = 0 has no logarithm
    u0, u1, u2 = np.log(omegas[i - 1]), np.log(omegas[i]), np.log(omegas[i + 1])
    d0, d2 = fv[i] - fv[i - 1], fv[i] - fv[i + 1]
    den = (u1 - u0) * d2 + (u2 - u1) * d0   # >= 0 at a local maximum; 0 if flat
    ok = den > 0
    u = u1[ok] - 0.5 * ((u1 - u0) ** 2 * d2 - (u2 - u1) ** 2 * d0)[ok] / den[ok]
    return np.clip(np.exp(u), omegas[i - 1][ok], omegas[i + 1][ok])


def _interior(M: StateSpace, ends: np.ndarray) -> np.ndarray:
    """PER_INTERVAL points inside each interval between sorted ``ends``, evenly in
    u = arctan(ln(w/w0)), w0 the geometric mean of M's pole moduli: [0, inf] maps
    onto [-pi/2, pi/2], dense about w0.  Each is clipped strictly inside its interval."""
    lw0 = np.log(np.abs(M.poles)).mean()
    with np.errstate(divide="ignore", over="ignore"):   # ln 0 = -inf maps to -pi/2
        u = np.arctan(np.log(ends) - lw0)
        w = np.exp(lw0 + np.tan(u[:-1, None] + np.diff(u)[:, None] * _FRACTIONS))
    return np.clip(w, np.nextafter(ends[:-1], np.inf)[:, None], np.nextafter(ends[1:], 0.0)[:, None]).ravel()


def _certified_max(summary: FrequencyLocus, family, choose):
    """(bound, x, w, m): sup of f(M(jw), w) over [0, wmax] at the parameter x, certified.

    ``family(M, x)``, a level builder, returns (f, crossings) at the
    parameter x: ``crossings(level)`` returns the w >= 0 where f(M(jw), w)
    = level.  The summary's samples are sorted, w = 0 and wmax = omegas[-1]
    among them.  Also returns every point evaluated, the samples among
    them, with its M(jw).

    The points start as the samples plus, up to wmax and in one
    ``freq_values`` call, one parabola step at each sampled peak of f
    (``_parabola_seeds``, at the x the samples give: where they miss the
    locus, f may overflow) and each real-axis crossing w* > 0 of M and w*(1
    +- SEED_EPS).  Where they all miss it, as at [1e-300, 1e300], the rounds
    find it, densest about M's pole moduli (``_interior``).  Each round then
    - sets x = ``choose(w, m)`` over every point so far, a constant where x
      is pinned;
    - sets the level to the largest f over every point so far, and tol =
      CERT_RTOL * |level|;
    - takes as breakpoints w = 0, every crossing of level + tol inside (0,
      wmax), and wmax.  f <= level at w = 0 and at wmax, so f exceeds level
      + tol only on whole intervals between consecutive breakpoints, however
      many crossings there are;
    - evaluates PER_INTERVAL points inside each interval (``_interior``).
    Once no crossing lies inside (0, wmax), or none of the new points
    exceeds level + tol, level + tol bounds f on [0, wmax] at x.  At a peak
    that the points already hold to tol, level + tol is a near miss, whose
    zero pair ``imaginary_zeros`` returns as no crossing: such a round stops
    at its solve, with no new point.  When ``choose`` is the exact argmin
    over x of the largest f over the points, the level is that least
    largest f, below the optimum over every x; points are only appended, so
    the bound is within tol of the least largest f over the final points.
    """
    M, omegas, values = summary.system, summary.omegas, summary.values
    wmax = omegas[-1]
    f = family(M, choose(omegas, values))[0]
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite f is no peak
        steps = _parabola_seeds(omegas, f(values, omegas))
    trio = np.outer([wk for wk, _ in M.real_crossings], [1.0 - SEED_EPS, 1.0, 1.0 + SEED_EPS])
    seeds = np.concatenate([steps, trio.ravel()])
    seeds = seeds[(seeds > 0) & (seeds <= wmax)]
    w = np.concatenate([omegas, seeds])
    m = np.concatenate([values, freq_values(M, seeds)])
    for _ in range(CERT_ROUNDS):
        x = choose(w, m)
        f, crossings = family(M, x)
        level = float(f(m, w).max())
        tol = CERT_RTOL * abs(level)
        z = crossings(level + tol)
        z = z[(z > 0) & (z < wmax)]
        if not z.size:
            break
        w_in = _interior(M, np.concatenate([[0.0], z, [wmax]]))
        m_in = freq_values(M, w_in)
        w, m = np.concatenate([w, w_in]), np.concatenate([m, m_in])
        if f(m_in, w_in).max() <= level + tol:
            break
    else:   # the last round's points exceed its level: take it over them too
        level = float(f(m, w).max())
        tol = CERT_RTOL * abs(level)
        warnings.warn(
            f"maximum {level + tol!r} not certified after {CERT_ROUNDS} rounds",
            stacklevel=4,
        )
    return level + tol, x, w, m


def _minimax_line(a: np.ndarray, b: np.ndarray, quad: bool = False, pair=None):
    """(x, (L, R)): exact argmin x, a float, of phi(x) = max_k (a_k - x b_k)
    (+ x^2 if ``quad``), and the pair of lines active there.

    phi is convex, with a minimum if ``quad`` or if some b_k > 0 > b_j.  Keep
    two lines: L, active where phi falls, and R, active where it rises,
    starting from ``pair`` or else from those active as x -> -inf and +inf.
    The minimizer of max(L, R) (their intersection, or with x^2 the vertex
    of one of them) is phi's once the line active there is no higher than
    the pair; otherwise that line replaces L or R by the sign of phi's slope
    along it.  Any start with b_L >= b_R (b_L > 0 > b_R without x^2) ends
    there, and each step keeps that order, so the pair returned starts a
    later search on the same lines with more appended.  Each step is one
    pass over the lines.  A step count past the number of lines, which
    rounding alone could cause, ends at the last point.
    """
    k2 = 2.0 if quad else 0.0

    def active(x):
        return int(np.argmax(a - x * b))

    if pair is None:
        # the largest b and the largest -b, ties broken by the largest a
        top, bottom = np.flatnonzero(b == b.max()), np.flatnonzero(b == b.min())
        pair = int(top[np.argmax(a[top])]), int(bottom[np.argmax(a[bottom])])
    L, R = pair
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
    return float(x), (L, R)


def _modulus_level(M: StateSpace, x_c: float):
    """(f, crossings) for f(M(jw), w) = |M(jw) - x_c|.

    ``crossings(r)`` returns the w where f = r: the jw-axis zeros of
    r^2 - G(-s) G(s) for G = M - x_c, realized as G(-s) in series after G(s).
    G(-s)'s states are scaled by k = |H| / (|b| |c|): the coupling k b c is the
    size of H, so rounding zeros (``lti.D_RTOL``) are the same at any scale of M.
    """
    H, b, c, n = M.A, M.B[:, 0], M.C[0], M.nstates
    k = np.linalg.norm(H) / (np.linalg.norm(b) * np.linalg.norm(c))
    A = np.zeros((2 * n, 2 * n))
    A[:n, :n], A[n:, :n], A[n:, n:] = H, k * np.outer(b, c), -H
    B = np.concatenate([b, -k * x_c * b])
    C = np.concatenate([x_c * c, c / k])
    return (
        lambda m, w: np.abs(m - x_c),
        lambda r: imaginary_zeros(A, B, C, r * r - x_c * x_c),
    )


def _popov_level(M: StateSpace, q: float, side: int):
    """(f, crossings) for f(M(jw), w) = side * Re[(1 + jqw) M(jw)].

    ``crossings(L)`` returns the w where f = L: with F = (1 + qs) M =
    (H, b, c + q cH, q cb), the jw-axis zeros of 2L - side * (F(s) + F(-s)),
    whose feedthrough is 2 (L - side * q cb), f's limit as w -> inf.
    """
    H, b, c, n = M.A, M.B[:, 0], M.C[0], M.nstates
    c_f = c + q * (c @ H)
    A = np.zeros((2 * n, 2 * n))
    A[:n, :n], A[n:, n:] = H, -H
    B = np.concatenate([b, b])
    C = -side * np.concatenate([c_f, -c_f])
    asymptote = side * q * (c @ b)   # f as w -> inf
    return (
        lambda m, w: side * (m.real - q * w * m.imag),
        lambda level: imaginary_zeros(A, B, C, 2.0 * (level - asymptote)),
    )


def _circle_radius(summary: FrequencyLocus, x_c: float) -> float:
    """Certified radius of the locus about the center x_c on the real axis."""
    return _certified_max(summary, _modulus_level, lambda w, m: x_c)[0]


def _popov_line(summary: FrequencyLocus, side: int, choose):
    """(c, q, w, m): the certified sup c of side * Re[(1 + jqw) M(jw)] at q = ``choose(w, m)``."""
    return _certified_max(summary, lambda M, q: _popov_level(M, q, side), choose)


def small_gain_bounds(summary: FrequencyLocus) -> StabilityInterval:
    """Smallest origin-centered circle enclosing the locus of M(jw).

    The radius r_sg is the peak magnitude of M; the interval is the
    symmetric (-1/r_sg, +1/r_sg), unbounded on both sides where M = 0.
    """
    r_sg = _circle_radius(summary, 0.0)
    return _interval_from_intercepts(pos=r_sg, neg=-r_sg, criterion="small_gain", witnesses={"r_sg": r_sg})


def circle_bounds(summary: FrequencyLocus, center: str = "optimal") -> StabilityInterval:
    """Smallest locus-enclosing circle centered on the real axis.

    The center minimizes the radius over the samples, exactly
    (``_minimax_line`` on the squared radius; this reproduces the reference
    results), and the radius there is certified on the continuous locus.
    ``center`` must be "optimal"; it stays for callers that pass it.
    """
    if center != "optimal":
        raise ValueError(f"unknown center mode {center!r}")
    # r^2 = x^2 + max_k (|M_k|^2 - 2 X_k x)
    x_c = _minimax_line(np.abs(summary.values) ** 2, 2.0 * summary.values.real, quad=True)[0]
    r_c = _circle_radius(summary, x_c)
    return _interval_from_intercepts(pos=x_c + r_c, neg=x_c - r_c, criterion="circle",
                                     witnesses={"x_c": x_c, "r_c": r_c})


def positive_real_bounds(summary: FrequencyLocus) -> StabilityInterval:
    """Vertical lines at the extreme real parts of the locus: Popov lines at q = 0."""
    x_max = _popov_line(summary, +1, lambda w, m: 0.0)[0]
    x_min = -_popov_line(summary, -1, lambda w, m: 0.0)[0]
    return _interval_from_intercepts(pos=x_max, neg=x_min, criterion="positive_real",
                                     witnesses={"x_max": x_max, "x_min": x_min})


def popov_bounds(summary: FrequencyLocus) -> StabilityInterval:
    """Popov lines on the plot of w*Im[M(jw)] vs Re[M(jw)].

    With f(q, w) = Re[M(jw)] - q*w*Im[M(jw)], the right line intercept is
    c+ = inf_q sup_w f and the left line intercept is c- = sup_q inf_w f,
    over every real q; q = 0 gives the positive real criterion's vertical
    lines.  At M's real-axis crossings, w = 0 first, w Im M = 0, so side *
    c is at least the largest side * Re M there, read off
    ``real_crossings`` (0.0 for a rounding zero, as in ``exact_bounds``).
    If w Im M keeps one sign on (0, wmax], that bound is the limit as side
    * q * w Im M -> +inf: both sides read it, q = +-inf (the real axis)
    with gap 0.  The sign changes only at crossings (M's jw-axis zeros
    among them, at x = 0.0), so the samples and w*(1 +- SEED_EPS) beside
    each crossing w* in (0, wmax], where every certificate starts, settle
    it.  A run that ``real_crossings`` merges is read beside its midpoint,
    where M is real to AXIS_RTOL: a touch keeps one sign there.  An Im M
    below the rounding unit of |M| has no sign: at w = 1e-100, M = (3s +
    1)/(s + 1)^3 reads +1e-115 for a true -8e-300.

    Otherwise each side is one ``_popov_line`` whose ``choose`` is Kelley's
    cutting plane (J. SIAM 8, 1960): over the set S of points evaluated so
    far, phi_S(q) = max_k side * f(q, w_k) is convex and lies below the sup
    over [0, wmax], and q is its exact argmin (``_minimax_line``), bounded
    as S starts on both sides of each crossing.  S only grows, by
    appending, so each round's solve starts from the previous round's
    active pair.  So every reported line (q, c) encloses the continuous
    locus on [0, wmax], and ``gap_plus``/``gap_minus``, c less min phi_S
    over the final S, bound how far c lies from the optimum over every
    slope: once the certificate closes, at most its tol (``_certified_max``).
    """
    M, omegas, values = summary.system, summary.omegas, summary.values
    axis = [p for p in M.real_crossings if p[0] <= omegas[-1]]
    beside = np.outer([wk for wk, _ in axis if wk > 0], [1.0 - SEED_EPS, 1.0 + SEED_EPS]).ravel()
    beside = beside[beside <= omegas[-1]]
    m = np.concatenate([values, freq_values(M, beside)])
    turn = np.concatenate([omegas, beside]) * m.imag
    turn[np.abs(m.imag) <= np.finfo(float).eps * np.abs(m)] = 0.0   # rounding: no sign
    sign = 1.0 if (turn > 0).any() else -1.0
    witnesses = {}
    for side, name in ((+1, "plus"), (-1, "minus")):
        if not (sign * turn < 0).any():   # one sign: the limit line
            q, c, gap = math.copysign(math.inf, side * sign), float(max(side * x for _, x in axis)), 0.0
        else:
            seen, q_low, pair = 0, 0.0, None   # the latest argmin, over `seen` points

            def choose(w, m, side=side):
                nonlocal seen, q_low, pair
                if w.size != seen:   # points are only appended
                    seen, (q_low, pair) = w.size, _minimax_line(side * m.real, side * w * m.imag, pair=pair)
                return q_low
            c, q, w, m = _popov_line(summary, side, choose)
            a, b = side * m.real, side * w * m.imag
            gap = c - float((a - choose(w, m) * b).max())
        witnesses |= {f"q_{name}": q, f"c_{name}": side * c, f"gap_{name}": gap}
    return _interval_from_intercepts(
        pos=witnesses["c_plus"], neg=witnesses["c_minus"], criterion="popov", witnesses=witnesses
    )


def _interval_from_intercepts(pos, neg, criterion, witnesses):
    if pos <= 0 or neg >= 0:
        warnings.warn(
            f"{criterion}: intercept of the wrong sign; side reported as "
            "unbounded",
            stacklevel=3,
        )
    return StabilityInterval(
        lower=-math.inf if pos <= 0 else -1.0 / pos,
        upper=math.inf if neg >= 0 else -1.0 / neg,
        criterion=criterion,
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# Exact analysis


def _max_real_parts(model: MDeltaModel, deltas: np.ndarray) -> np.ndarray:
    """Largest eigenvalue real part of H + delta*Qcal for each delta: stacked
    eigvals of STACK_BYTES, or more where numpy needs more to drop the GIL.

    With two CPUs and more than GIL_FREE_SIZE / n deltas per half, whatever
    n, a stack holds at most half the deltas and the stacks go in pairs: the
    caller builds both (closed_loop_matrix stays on this thread, and nothing
    after the worker starts raises), a worker thread solves the second while
    the caller solves the first, and an exception from either is re-raised
    after the join.  Every matrix goes through the same eigvals, so the
    results are bit-identical to one solve per matrix, whatever the split.
    """
    n = model.H.shape[0]
    size = max(STACK_BYTES // (8 * model.H.size), GIL_FREE_SIZE // n + 1)
    paired = _cpus() >= 2 and deltas.size // 2 * n > GIL_FREE_SIZE
    if paired:
        size = min(size, -(-deltas.size // 2))
    out, errors = np.empty(deltas.size), []

    def solve(lo, stack):
        try:
            np.max(np.linalg.eigvals(stack).real, axis=1, out=out[lo : lo + len(stack)])
        except Exception as exc:  # re-raised by the caller after the join
            errors.append(exc)

    for lo in range(0, deltas.size, 2 * size if paired else size):
        mid, worker = lo + size, None
        first = closed_loop_matrix(model, deltas[lo:mid, None, None])
        if paired and mid < deltas.size:
            worker = threading.Thread(target=solve, args=(
                mid, closed_loop_matrix(model, deltas[mid : mid + size, None, None])))
            worker.start()
        solve(lo, first)
        if worker is not None:
            worker.join()
        if errors:
            raise errors[0]
    return out


def _cpus() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def exact_bounds(model: MDeltaModel, summary: FrequencyLocus | None = None) -> StabilityInterval:
    """Maximal open interval of delta around 0 with stable H + delta*Qcal.

    An eigenvalue of H + delta*Qcal lies on the jw-axis exactly when delta
    = -1/x for a real value x of M(jw) (zero exclusion; Barmish, New Tools
    for Robustness of Linear Systems, 1994).  So each bound is the nearest
    such -1/x on its side of 0, and a side with none is unbounded.  The
    witnesses ``upper_crossing`` and ``lower_crossing`` are the (w, x) of
    each bound.  On a model built at a stability margin m (``build_mdelta``)
    H is H + m*I, so the interval keeps every eigenvalue left of Re s = -m.
    The x are ``model.M.real_crossings``, one solve per system.  The nominal
    check stays here, on ``model.M.poles``: a model need not come from
    ``build_mdelta``.

    ``summary`` is ignored: the interval is read off the realization of M,
    not off a sampled locus.  It stays for callers that pass it
    positionally.
    """
    if not np.all(model.M.poles.real < 0.0):
        raise UnstableFixedPartError("nominal closed loop is not stable")
    crossings = model.M.real_crossings
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
    )


def verify_interval(
    model: MDeltaModel, interval: StabilityInterval, n_samples: int
) -> VerificationReport:
    """Audit an interval: every delta in it must keep H + delta*Qcal stable.

    Two routes.  ``crossings`` holds each delta* = -1/x, x a real value of
    M(jw), that lies inside the interval by more than INSIDE_RTOL*|delta*|:
    an eigenvalue sits on the jw-axis there (see exact_bounds), so this
    verdict covers the whole interval.  ``failures`` holds the n_samples
    evenly spaced interior deltas that are not stable (none if lower >=
    upper), and for the exact interval each bound that is not marginal: an
    eigenvalue lies on the jw-axis there, so the largest real part must be
    within MARGINAL_RTOL * max(1, |H|_1) of 0.  The report passes only if
    both are empty.  On a model built at a stability margin m, stable means
    every eigenvalue left of Re s = -m.  n_samples = 0 warns that the
    sampled audit is vacuous.
    """
    if interval.lower_unbounded or interval.upper_unbounded:
        raise ValueError("verify_interval requires a finite interval")
    if n_samples < 0:
        raise ValueError(f"n_samples must be >= 0, got {n_samples}")
    crossings = tuple(
        (-1.0 / x, w)
        for w, x in model.M.real_crossings
        if x and interval.lower + INSIDE_RTOL / abs(x) < -1.0 / x < interval.upper - INSIDE_RTOL / abs(x)
    )
    if n_samples == 0:
        warnings.warn(
            f"{interval.criterion}: n_samples = 0, the sampled audit is vacuous",
            stacklevel=2,
        )
    deltas = np.empty(0)
    if interval.lower < interval.upper:
        deltas = np.linspace(interval.lower, interval.upper, n_samples + 2)[1:-1]
    bounds = np.array([interval.lower, interval.upper] if interval.criterion == "exact" else [])
    # the probes share the interior deltas' solve, and its split decision
    real_parts = _max_real_parts(model, np.concatenate([deltas, bounds]))
    failures = [(float(d), float(mr)) for d, mr in zip(deltas, real_parts) if mr >= 0]
    tol = MARGINAL_RTOL * max(1.0, float(np.linalg.norm(model.H, 1)))
    failures += [(float(d), float(mr)) for d, mr in zip(bounds, real_parts[deltas.size:]) if abs(mr) > tol]
    return VerificationReport(
        criterion=interval.criterion,
        passed=not (failures or crossings),
        n_checked=len(deltas),
        failures=tuple(failures),
        crossings=crossings,
    )
