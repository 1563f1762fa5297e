"""Acceptance suite: regression against the published reference values plus
model-independent soundness and convergence properties.

Each criterion prints a single PASS/FAIL line before asserting, so the
full scorecard is visible in the failure output as well.
"""

import numpy as np
import pytest
from click.testing import CliRunner

from cgmargin.cli import main as cli_main
from cgmargin.criteria import (
    CRITERIA,
    circle_bounds,
    exact_bounds,
    popov_bounds,
    positive_real_bounds,
    sample_locus,
    small_gain_bounds,
    verify_interval,
)
from cgmargin.lti import zpk_of_ss
from cgmargin.mdelta import rank_one_factor
from cgmargin.pipeline import parse_report_csv

import reference_values as ref
from conftest import dense_response, golden_min, scan_exact_bounds

ROOT_TOL = 0.02        # roots and gain of the nominal model
EXACT_TOL = 0.005      # exact bounds vs reference
ROUTE_TOL = 1e-4       # agreement of two independent routes: absolute for
                       # the exact interval, relative for the Popov lower bound
BOUND_TOL = 0.01       # graphical-criterion bounds and witnesses
VERTICAL_TOL = 1e-6    # Popov vertical reduction vs positive real
INFLATE = 0.005        # containment check: inflated exact interval
CONV_TOL = 1e-3        # bound drift under grid doubling


def _report(name: str, checks, note: str = ""):
    """checks: list of (label, ok, detail); prints one scorecard line.

    ``note`` is shown whether the checks pass or fail."""
    ok = all(c[1] for c in checks)
    bad = ", ".join(f"{label} ({detail})" for label, good, detail in checks if not good)
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if note:
        line += f" [{note}]"
    if bad:
        line += f" - {bad}"
    print(line)
    assert ok, line


def _within(computed, reference, tol):
    err = ref.rel_err(computed, reference)
    return err <= tol, f"{computed:.6g} vs {reference:.6g}, rel err {err:.2%}"


@pytest.fixture(scope="module")
def popov_oracle_lower(session):
    """Popov lower bound -1/c+ from an independent route: the minimax
    c+ = min_q max_w [Re M - q*w*Im M] over a dense eigendecomposition
    sweep, by a coarse scan over q and golden section (convex in q)."""
    omegas = np.logspace(-4, 4, 1_000_000)
    m = dense_response(session.model.M, omegas)
    x, y = m.real, omegas * m.imag

    def sup(q):
        return float((x - q * y).max())

    qs = np.concatenate([-np.logspace(3, -3, 61), [0.0], np.logspace(-3, 3, 61)])
    i = int(np.argmin([sup(q) for q in qs]))
    _, c_plus = golden_min(sup, qs[max(i - 1, 0)], qs[min(i + 1, qs.size - 1)], rel_tol=1e-10)
    return -1.0 / c_plus


def _popov_row(lower, upper, exact_lower, oracle_lower):
    """Checks for the Popov row, plus a note with the signed gap to the paper.

    A published Popov bound is a certificate: some Popov line proves
    (POPOV[0], POPOV[1]) stable, so the optimum over all lines, which
    popov_bounds promises, is at least that wide on the same data.  It need
    not be equal (the paper's line need not have been optimal), so the
    lower bound is held to reaching the published value, to an independent
    minimax, and to the exact interval.  The upper bound is checked
    two-sided like every other row.
    """
    gap = (lower - ref.POPOV[0]) / abs(ref.POPOV[0])
    checks = [
        (
            "lower reaches published",
            lower <= ref.POPOV[0] * (1 - BOUND_TOL),
            f"{lower:.6g} vs {ref.POPOV[0]:.6g}, signed gap {gap:+.2%}",
        ),
        (
            "lower agrees with dense minimax",
            ref.rel_err(lower, oracle_lower) <= ROUTE_TOL,
            f"{lower:.8g} vs {oracle_lower:.8g}",
        ),
        (
            "lower inside exact",
            lower >= exact_lower,
            f"{lower:.6g} vs exact {exact_lower:.6g}",
        ),
        ("upper", *_within(upper, ref.POPOV[1], BOUND_TOL)),
    ]
    note = f"Popov lower {lower:.6g} vs published {ref.POPOV[0]:.6g}: {gap:+.2%}"
    return checks, note


def test_criterion_1_model_regression(session):
    zeros, poles, gain = zpk_of_ss(session.augmented.nominal)
    checks = [("gain", *_within(gain, ref.NOMINAL_GAIN, ROOT_TOL))]
    for got, want in zip(sorted(z.real for z in zeros), sorted(ref.NOMINAL_ZEROS)):
        checks.append((f"zero {want}", *_within(got, want, ROOT_TOL)))
    real_poles = sorted(p.real for p in poles if abs(p.imag) < 1e-9)
    for got, want in zip(real_poles, sorted(ref.NOMINAL_POLES_REAL)):
        checks.append((f"pole {want}", *_within(got, want, ROOT_TOL)))
    pair = [p for p in poles if p.imag > 1e-9]
    checks.append(("pole pair count", len(pair) == 1, f"{len(pair)} found"))
    if pair:
        a1, a0 = 2 * abs(pair[0].real), abs(pair[0]) ** 2
        checks.append(
            ("pair damping", *_within(a1, ref.NOMINAL_POLE_PAIR_COEFFS[1], ROOT_TOL))
        )
        checks.append(
            ("pair frequency", *_within(a0, ref.NOMINAL_POLE_PAIR_COEFFS[2], ROOT_TOL))
        )
    rhp = int((np.linalg.eigvals(session.open_plant.nominal.A).real > 0).sum())
    checks.append(("open-loop RHP eigenvalues", rhp == 3, f"{rhp} found"))
    _report("1 (nominal model)", checks)


def test_criterion_2_exact_interval(session, result):
    locus_iv = result.intervals["exact"]
    scan_iv = scan_exact_bounds(session.model)
    checks = [
        ("crossing lower", *_within(locus_iv.lower, ref.EXACT[0], EXACT_TOL)),
        ("crossing upper", *_within(locus_iv.upper, ref.EXACT[1], EXACT_TOL)),
        ("scan lower", *_within(scan_iv.lower, ref.EXACT[0], EXACT_TOL)),
        ("scan upper", *_within(scan_iv.upper, ref.EXACT[1], EXACT_TOL)),
        (
            "routes agree (lower)",
            abs(locus_iv.lower - scan_iv.lower) <= ROUTE_TOL,
            f"|{locus_iv.lower:.8g} - {scan_iv.lower:.8g}|",
        ),
        (
            "routes agree (upper)",
            abs(locus_iv.upper - scan_iv.upper) <= ROUTE_TOL,
            f"|{locus_iv.upper:.8g} - {scan_iv.upper:.8g}|",
        ),
    ]
    _report("2 (exact interval)", checks)


def test_criterion_3_small_gain(result):
    iv = result.intervals["small_gain"]
    checks = [
        ("radius", *_within(iv.witnesses["r_sg"], ref.SMALL_GAIN_RADIUS, BOUND_TOL)),
        ("lower", *_within(iv.lower, ref.SMALL_GAIN[0], BOUND_TOL)),
        ("upper", *_within(iv.upper, ref.SMALL_GAIN[1], BOUND_TOL)),
    ]
    _report("3 (small gain)", checks)


def test_criterion_4_circle(result):
    iv = result.intervals["circle"]
    checks = [
        ("center", *_within(iv.witnesses["x_c"], ref.CIRCLE_CENTER, BOUND_TOL)),
        ("radius", *_within(iv.witnesses["r_c"], ref.CIRCLE_RADIUS, BOUND_TOL)),
        ("lower", *_within(iv.lower, ref.CIRCLE[0], BOUND_TOL)),
        ("upper", *_within(iv.upper, ref.CIRCLE[1], BOUND_TOL)),
    ]
    _report("4 (circle)", checks)


def test_criterion_5_positive_real(result):
    iv = result.intervals["positive_real"]
    checks = [
        ("lower", *_within(iv.lower, ref.POSITIVE_REAL[0], BOUND_TOL)),
        ("upper", *_within(iv.upper, ref.POSITIVE_REAL[1], BOUND_TOL)),
    ]
    _report("5 (positive real)", checks)


def test_criterion_6a_popov_reference_bounds(result, popov_oracle_lower):
    # The computed lower bound is about 1.4% wider than the published one;
    # see _popov_row for why that is checked one-sided.
    iv = result.intervals["popov"]
    checks, note = _popov_row(
        iv.lower, iv.upper, result.intervals["exact"].lower, popov_oracle_lower
    )
    _report("6a (Popov reference bounds)", checks, note)


def test_criterion_6b_popov_vertical_reduction(result):
    # the vertical lines (q = 0) of the positive real criterion are among the
    # Popov slopes, so the Popov interval contains the positive real one
    pr = result.intervals["positive_real"]
    pv = result.intervals["popov"]
    checks = [
        (
            "lower",
            pv.lower <= pr.lower + VERTICAL_TOL * abs(pr.lower),
            f"{pv.lower:.8g} vs {pr.lower:.8g}",
        ),
        (
            "upper",
            pv.upper >= pr.upper - VERTICAL_TOL * abs(pr.upper),
            f"{pv.upper:.8g} vs {pr.upper:.8g}",
        ),
    ]
    _report("6b (Popov vertical reduction)", checks)


@pytest.fixture(scope="module")
def cli_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_cli")
    runner = CliRunner()
    res = runner.invoke(cli_main, ["analyze", "--out", str(out)])
    return res, (out / "report.csv").read_text(), (out / "report.txt").read_text()


def test_criterion_7a_table_rendering(cli_report):
    res, csv_text, table = cli_report
    intervals = parse_report_csv(csv_text)
    row_order = [ln.split(",")[0] for ln in csv_text.splitlines()[1:] if ln]
    labels = ["Exact", "Small gain", "Circle", "Positive real", "Popov"]
    positions = [table.find(lbl) for lbl in labels]
    checks = [
        ("exit code", res.exit_code == 0, f"exit {res.exit_code}"),
        ("five rows", set(intervals) == set(CRITERIA), f"{sorted(intervals)}"),
        ("csv order", row_order == list(CRITERIA), f"{row_order}"),
        (
            "table order",
            all(p >= 0 for p in positions) and positions == sorted(positions),
            f"{positions}",
        ),
    ]
    _report("7a (report rendering)", checks)


def test_criterion_7b_table_values(cli_report, popov_oracle_lower):
    # The Popov row is held to the same checks as criterion 6a.
    _, csv_text, _ = cli_report
    intervals = parse_report_csv(csv_text)
    references = {
        "exact": (ref.EXACT, EXACT_TOL),
        "small_gain": (ref.SMALL_GAIN, BOUND_TOL),
        "circle": (ref.CIRCLE, BOUND_TOL),
        "positive_real": (ref.POSITIVE_REAL, BOUND_TOL),
    }
    checks = []
    for name, ((lo, hi), tol) in references.items():
        iv = intervals[name]
        checks.append((f"{name} lower", *_within(iv.lower, lo, tol)))
        checks.append((f"{name} upper", *_within(iv.upper, hi, tol)))
    pv = intervals["popov"]
    popov_checks, note = _popov_row(
        pv.lower, pv.upper, intervals["exact"].lower, popov_oracle_lower
    )
    checks += [(f"popov {label}", ok, detail) for label, ok, detail in popov_checks]
    _report("7b (report values)", checks, note)


def test_criterion_8_property_suite(session, result, random_models, random_summaries):
    rng = np.random.default_rng(5)
    checks = []
    models = [(session.model, session.summary, result.intervals["exact"])]
    for m, s in zip(random_models, random_summaries):
        models.append((m, s, exact_bounds(m, s)))

    worst_locus = 0.0
    worst_rank = 0.0
    containment_ok = True
    popov_ok = True
    verify_ok = True
    detail = []
    for idx, (model, summary, exact) in enumerate(models):
        # (a) root-locus equivalence over 25 random deltas
        for delta in rng.uniform(-20.0, 1.0, size=25):
            direct = np.sort_complex(np.linalg.eigvals(model.H + delta * model.Qcal))
            closure = np.sort_complex(
                np.linalg.eigvals(model.M.A - delta * model.M.B @ model.M.C)
            )
            worst_locus = max(worst_locus, np.abs(direct - closure).max())
        # (d) rank-1 reconstruction
        sigma, v, w = rank_one_factor(model.Qcal)
        worst_rank = max(
            worst_rank, np.abs(model.Qcal - sigma * np.outer(v, w)).max() / sigma
        )
        # (b), (c), (e)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            intervals = [
                small_gain_bounds(summary),
                circle_bounds(summary),
                positive_real_bounds(summary),
                popov_bounds(summary),
            ]
        pr, pv = intervals[2], intervals[3]
        lo_contained = pv.lower_unbounded or (
            not pr.lower_unbounded and pv.lower <= pr.lower + 1e-9 * abs(pr.lower)
        )
        hi_contained = pv.upper_unbounded or (
            not pr.upper_unbounded and pv.upper >= pr.upper - 1e-9 * abs(pr.upper)
        )
        if not (lo_contained and hi_contained):
            popov_ok = False
            detail.append(f"model {idx}: popov does not contain positive real")
        for iv in intervals:
            lo_ok = (
                exact.lower_unbounded
                or iv.lower_unbounded
                or iv.lower >= exact.lower * (1 + INFLATE)
            )
            hi_ok = (
                exact.upper_unbounded
                or iv.upper_unbounded
                or iv.upper <= exact.upper * (1 + INFLATE)
            )
            if not (lo_ok and hi_ok):
                containment_ok = False
                detail.append(f"model {idx}: {iv.criterion} escapes exact interval")
            if not (iv.lower_unbounded or iv.upper_unbounded):
                report = verify_interval(model, iv, 50)
                if not report.passed:
                    verify_ok = False
                    detail.append(f"model {idx}: {iv.criterion} verification failed")

    checks.append(
        ("root-locus equivalence", worst_locus < 1e-9, f"worst {worst_locus:.2e}")
    )
    checks.append(
        ("containment in exact", containment_ok, "; ".join(detail) or "ok")
    )
    checks.append(("popov contains positive real", popov_ok, "; ".join(detail) or "ok"))
    checks.append(
        ("rank-1 reconstruction", worst_rank < 1e-10, f"worst {worst_rank:.2e}")
    )
    checks.append(("interior stability sampling", verify_ok, "; ".join(detail) or "ok"))
    _report("8 (property suite)", checks)


def test_criterion_9_convergence(session, result):
    doubled = sample_locus(session.model.M, wmin=1e-4, wmax=1e4, n=8000)
    fine = {
        "exact": exact_bounds(session.model, doubled),
        "small_gain": small_gain_bounds(doubled),
        "circle": circle_bounds(doubled),
        "positive_real": positive_real_bounds(doubled),
        "popov": popov_bounds(doubled),
    }
    checks = []
    for name, iv in fine.items():
        base = result.intervals[name]
        for side in ("lower", "upper"):
            a, b = getattr(base, side), getattr(iv, side)
            drift = ref.rel_err(b, a)
            checks.append(
                (f"{name} {side}", drift <= CONV_TOL, f"drift {drift:.2e}")
            )
    _report("9 (grid convergence)", checks)
