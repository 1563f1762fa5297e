"""Output checks run on every operation, outside the timed region.

Each check returns a list of problems; an empty list means the output
passed.  The checks use only numpy and the public result objects, never
the program's own predicates, so a defect in those cannot hide itself.
"""

from __future__ import annotations

import math

import numpy as np

# An exact bound is probed this far inside and outside: 1e-4 relative, but
# never closer than twice exact_bounds' default bisection tolerance (1e-6).
EXACT_STEP_REL = 1e-4
EXACT_STEP_ABS = 2e-6
# A graphical bound may sit on the exact one (Popov upper does on the
# aircraft); allow for exact_bounds' tolerance and the locus polish.
CONTAIN_REL = 1e-5
CONTAIN_ABS = 1e-6
# Popov optimises over slopes that include the vertical line, so it must
# contain the positive real interval up to rounding.
POPOV_REL = 1e-9
# Small-gain radius and positive-real extremes must agree with the modal
# sweep below to this share of the peak magnitude of M.
ORACLE_REL = 1e-6
ORACLE_POINTS = 20000   # log-spaced sweep before zooming on the maximum
ORACLE_CHUNK = 1000     # frequencies per vectorised block
# Bounds read back from report.csv are printed with repr, so they round-trip.
REPORT_REL = 1e-12

GRAPHICAL = ("small_gain", "circle", "positive_real", "popov")

# The bundled model's table at four significant digits, as documented.
# Popov lower is the program's -11.52, not the published -11.3692: that
# known gap is documented and is not a benchmark failure.
KNOWN_TABLE = {
    "exact": ("-16.39", "0.5123"),
    "small_gain": ("-0.5089", "0.5089"),
    "circle": ("-2.096", "0.4782"),
    "positive_real": ("-5.515", "0.5109"),
    "popov": ("-11.52", "0.5123"),
}


def finite(iv) -> bool:
    return not (iv.lower_unbounded or iv.upper_unbounded)


def max_real_part(model, delta: float) -> float:
    return float(np.linalg.eigvals(model.H + delta * model.Qcal).real.max())


def check_reports(intervals: dict, reports: dict) -> list[str]:
    problems = []
    expected = {name for name, iv in intervals.items() if finite(iv)}
    if set(reports) != expected:
        problems.append(
            f"verification reports for {sorted(reports)}, expected {sorted(expected)}"
        )
    for name, rep in reports.items():
        if not rep.passed:
            problems.append(f"{name}: VerificationReport failed: {rep.failures[:1]}")
    return problems


def check_exact(model, iv) -> list[str]:
    """Stable just inside each finite exact bound, unstable just outside."""
    problems = []
    for side, bound, unbounded, sign in (
        ("lower", iv.lower, iv.lower_unbounded, -1.0),
        ("upper", iv.upper, iv.upper_unbounded, +1.0),
    ):
        if unbounded:
            continue
        step = max(EXACT_STEP_REL * abs(bound), EXACT_STEP_ABS)
        inside = max_real_part(model, bound - sign * step)
        outside = max_real_part(model, bound + sign * step)
        if inside >= 0.0:
            problems.append(f"exact {side} {bound!r}: unstable inside (max Re {inside:.3e})")
        if outside < 0.0:
            problems.append(f"exact {side} {bound!r}: stable outside (max Re {outside:.3e})")
    return problems


def check_containment(intervals: dict) -> list[str]:
    """Graphical intervals lie in the exact one; Popov contains positive real."""
    problems = []
    ex = intervals["exact"]
    for name in GRAPHICAL:
        g = intervals[name]
        if not ex.lower_unbounded:
            tol = CONTAIN_REL * abs(ex.lower) + CONTAIN_ABS
            if g.lower_unbounded or g.lower < ex.lower - tol:
                problems.append(f"{name} lower {g.lower!r} beyond exact {ex.lower!r}")
        if not ex.upper_unbounded:
            tol = CONTAIN_REL * abs(ex.upper) + CONTAIN_ABS
            if g.upper_unbounded or g.upper > ex.upper + tol:
                problems.append(f"{name} upper {g.upper!r} beyond exact {ex.upper!r}")
    pr, pop = intervals["positive_real"], intervals["popov"]
    if not pop.lower_unbounded and (
        pr.lower_unbounded or pop.lower > pr.lower + POPOV_REL * abs(pr.lower)
    ):
        problems.append(f"popov lower {pop.lower!r} inside positive real {pr.lower!r}")
    if not pop.upper_unbounded and (
        pr.upper_unbounded or pop.upper < pr.upper - POPOV_REL * abs(pr.upper)
    ):
        problems.append(f"popov upper {pop.upper!r} inside positive real {pr.upper!r}")
    return problems


def modal_response(M, omegas: np.ndarray) -> np.ndarray:
    """M(jw) from the eigendecomposition of A, independent of the solver path.

    Chunked so the check never raises the process's peak memory.
    """
    lam, V = np.linalg.eig(M.A)
    bb = np.linalg.solve(V, M.B[:, 0])
    cc = M.C[0, :] @ V
    out = np.empty(omegas.shape, dtype=complex)
    for i in range(0, omegas.size, ORACLE_CHUNK):
        om = omegas[i : i + ORACLE_CHUNK]
        out[i : i + ORACLE_CHUNK] = (cc * (bb / (1j * om[:, None] - lam))).sum(axis=1)
    return out


def oracle_max(M, f, wmin: float, wmax: float) -> float:
    """sup of f(M(jw)) over {0} and [wmin, wmax]: dense log sweep, then zoom."""
    sweep = np.logspace(math.log10(wmin), math.log10(wmax), ORACLE_POINTS)
    grid = np.concatenate([[0.0], sweep])
    for _ in range(4):
        vals = f(modal_response(M, grid))
        i = int(np.argmax(vals))
        best = float(vals[i])
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
        grid = np.linspace(lo, hi, 201)
    return max(best, float(f(modal_response(M, grid)).max()))


def check_oracle(M, intervals: dict, wmin: float, wmax: float) -> list[str]:
    """Small-gain radius and positive-real extremes against the modal sweep."""
    r_sg = intervals["small_gain"].witnesses["r_sg"]
    pr = intervals["positive_real"].witnesses
    peak = oracle_max(M, np.abs, wmin, wmax)
    pairs = (
        ("small_gain r_sg", r_sg, peak),
        ("positive_real x_max", pr["x_max"], oracle_max(M, np.real, wmin, wmax)),
        ("positive_real x_min", pr["x_min"],
         -oracle_max(M, lambda m: -m.real, wmin, wmax)),
    )
    return [
        f"{label} {got!r} vs modal sweep {want!r}"
        for label, got, want in pairs
        if abs(got - want) > ORACLE_REL * peak
    ]


def check_known_values(intervals: dict) -> list[str]:
    problems = []
    for name, (lo, up) in KNOWN_TABLE.items():
        iv = intervals[name]
        got = (f"{iv.lower:.4g}", f"{iv.upper:.4g}")
        if got != (lo, up):
            problems.append(f"{name} {got} differs from the documented table {(lo, up)}")
    return problems


def check_analysis(model, intervals, reports, wmin, wmax, known=False) -> list[str]:
    """Every check that applies to one analysis of one model."""
    problems = check_reports(intervals, reports)
    problems += check_exact(model, intervals["exact"])
    problems += check_containment(intervals)
    problems += check_oracle(model.M, intervals, wmin, wmax)
    if known:
        problems += check_known_values(intervals)
    return problems


def check_same_bounds(got: dict, want: dict) -> list[str]:
    """Bounds read back from a report equal the in-process ones."""
    problems = []
    if set(got) != set(want):
        return [f"report criteria {sorted(got)} != {sorted(want)}"]
    for name, w in want.items():
        g = got[name]
        for side in ("lower", "upper"):
            a, b = getattr(g, side), getattr(w, side)
            if not (a == b or abs(a - b) <= REPORT_REL * abs(b)):
                problems.append(f"{name} {side}: report {a!r} != in-process {b!r}")
    return problems
