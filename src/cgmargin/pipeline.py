"""End-to-end orchestration: model file -> M-Delta model -> stability table."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import aircraft, criteria, mdelta
from .criteria import CRITERIA, StabilityInterval
from .lti import FrequencyLocus, StateSpace, ss_from_zpk, zpk_of_ss

# robust H-infinity loopshaping controller for the elevator-to-attitude
# channel; complex pole pair from s^2 + 7.22 s + 13.6
DEFAULT_CONTROLLER_ZEROS = (-5.14, -0.615, -0.0171)
DEFAULT_CONTROLLER_POLES = (
    -0.356,
    -0.0175,
    -3.61 + 0.7536905996792405j,
    -3.61 - 0.7536905996792405j,
)
DEFAULT_CONTROLLER_GAIN = 3.14

DEFAULT_KQ = 1.6
DEFAULT_KALPHA = 1.72


@dataclass
class AnalysisConfig:
    """All knobs of an analysis run; defaults reproduce the bundled model.
    A stability margin m >= 0 builds the model on H + m*I (mdelta.model_of)."""

    model_path: Path | None = None
    controller_zeros: tuple = DEFAULT_CONTROLLER_ZEROS
    controller_poles: tuple = DEFAULT_CONTROLLER_POLES
    controller_gain: float = DEFAULT_CONTROLLER_GAIN
    kq: float = DEFAULT_KQ
    kalpha: float = DEFAULT_KALPHA
    wmin: float = 1e-4
    wmax: float = 1e4
    npoints: int = 4000
    criteria: tuple = CRITERIA
    stability_margin: float = 0.0
    n_verify: int = 50

    def __post_init__(self):
        if not 0 < self.wmin < self.wmax < np.inf:   # nan fails
            raise ValueError("frequency window must satisfy 0 < wmin < wmax < inf")
        if not np.isfinite([self.kq, self.kalpha]).all():
            raise ValueError(f"need finite gains, got kq={self.kq!r}, kalpha={self.kalpha!r}")
        if not self.criteria:
            raise ValueError("criterion selection set must be nonempty")
        unknown = set(self.criteria) - set(CRITERIA)
        if unknown:
            raise ValueError(f"unknown criteria: {sorted(unknown)}")
        if not 0 <= self.stability_margin < np.inf:   # nan fails both
            raise ValueError(f"need a finite stability margin >= 0, got {self.stability_margin!r}")


@dataclass
class AnalysisSession:
    """Everything built on the way from the model file to the locus."""

    fc: aircraft.FlightCondition
    dl: aircraft.DimensionlessDerivatives
    open_plant: aircraft.UncertainPlant
    augmented: aircraft.UncertainPlant
    controller: StateSpace
    model: mdelta.MDeltaModel
    summary: FrequencyLocus   # samples of M(jw), carrying M as system


@dataclass
class AnalysisResult:
    session: AnalysisSession
    intervals: dict   # criterion -> interval, in CRITERIA order
    reports: dict     # criterion -> report, for each finite interval

    @property
    def all_sound(self) -> bool:
        return all(r.passed for r in self.reports.values())


def build_session(config: AnalysisConfig) -> AnalysisSession:
    path = config.model_path or aircraft.default_model_path()
    # an input that overflows leaves an inf or nan in H or Qcal, which
    # model_of refuses: one error, not a warning per numpy operation
    with np.errstate(over="ignore", invalid="ignore"):
        fc, dl = aircraft.load_model_file(path)
        open_plant = aircraft.build_uncertain_plant(fc, dl)
        augmented = aircraft.augment_uncertain_plant(open_plant, config.kq, config.kalpha)
        controller = ss_from_zpk(
            config.controller_zeros, config.controller_poles, config.controller_gain
        )
        model = mdelta.build_mdelta(augmented, controller, config.stability_margin)
    summary = criteria.sample_locus(
        model.M, wmin=config.wmin, wmax=config.wmax, n=config.npoints
    )
    return AnalysisSession(
        fc=fc,
        dl=dl,
        open_plant=open_plant,
        augmented=augmented,
        controller=controller,
        model=model,
        summary=summary,
    )


def _circle(x: float, r: float):
    """A circle of center x and radius r, and its real-axis intercepts."""
    return [("circle", x, r, 0.0)], (x + r, x - r)


def _lines(*lines):
    """Popov lines (slope q, intercept c), and their real-axis intercepts.  A
    line of slope +-inf is the real axis, which the axes draw: it has no row."""
    return [("line", q, c, 0.0) for q, c in lines if np.isfinite(q)], tuple(c for _, c in lines)


@dataclass(frozen=True)
class CriterionRow:
    """One criterion: its report label, its interval ``bounds(model, locus)``
    and, if it is graphical, the figure that draws that interval."""

    label: str
    bounds: Callable[[mdelta.MDeltaModel, FrequencyLocus], StabilityInterval]
    figure: str | None = None
    geometry: Callable[[dict], tuple] | None = None   # witnesses -> (rows, intercepts)
    popov_plane: bool = False   # the figure plots w Im M, not Im M, against Re M


# keyed in CRITERIA order.  Each bounds calls through the criteria module when
# it runs, so that a function rebound there (a tracer, a test) is the one run.
CRITERION_TABLE = {
    "exact": CriterionRow("Exact", lambda model, locus: criteria.exact_bounds(model)),
    "small_gain": CriterionRow(
        "Small gain", lambda model, locus: criteria.small_gain_bounds(locus),
        "nyquist_smallgain", lambda w: _circle(0.0, w["r_sg"])),
    "circle": CriterionRow(
        "Circle", lambda model, locus: criteria.circle_bounds(locus),
        "nyquist_circle", lambda w: _circle(w["x_c"], w["r_c"])),
    "positive_real": CriterionRow(   # its Popov lines at q = 0
        "Positive real", lambda model, locus: criteria.positive_real_bounds(locus),
        "nyquist_posreal", lambda w: _lines((0.0, w["x_max"]), (0.0, w["x_min"]))),
    "popov": CriterionRow(
        "Popov", lambda model, locus: criteria.popov_bounds(locus),
        "popov", lambda w: _lines((w["q_plus"], w["c_plus"]), (w["q_minus"], w["c_minus"])),
        popov_plane=True),
}


def audit_intervals(model: mdelta.MDeltaModel, intervals: dict, n_samples: int) -> dict:
    """verify_interval on each finite interval; a half-bounded one gets no report."""
    return {name: criteria.verify_interval(model, iv, n_samples)
            for name, iv in intervals.items() if not (iv.lower_unbounded or iv.upper_unbounded)}


def analyze_model(model: mdelta.MDeltaModel, locus: FrequencyLocus,
                  config: AnalysisConfig) -> tuple[dict, dict]:
    """The intervals of config.criteria on any M-Delta model and a locus of
    its M, in CRITERIA order, and the audits of the finite ones."""
    intervals = {name: row.bounds(model, locus)
                 for name, row in CRITERION_TABLE.items() if name in config.criteria}
    return intervals, audit_intervals(model, intervals, config.n_verify)


def run_analysis(config: AnalysisConfig, session: AnalysisSession | None = None) -> AnalysisResult:
    """Compute the selected criteria and verify every finite interval."""
    session = session or build_session(config)
    return AnalysisResult(session, *analyze_model(session.model, session.summary, config))


# ---------------------------------------------------------------------------
# Report rendering

def _fmt_bound(value: float) -> str:
    return "unbounded" if np.isinf(value) else f"{value:.6g}"


def _fmt_witnesses(interval: StabilityInterval, number, sep: str, tuple_sep: str) -> str:
    """key=value for each witness that is not None, ``number`` writing each float."""
    def text(value) -> str:
        if isinstance(value, tuple):
            return "(" + tuple_sep.join(number(x) for x in value) + ")"
        return number(value) if isinstance(value, float) else str(value)

    return sep.join(f"{k}={text(v)}" for k, v in interval.witnesses.items() if v is not None)


def format_report_table(intervals: dict) -> str:
    """Aligned text table, one row per interval in the order of ``intervals``."""
    header = f"{'Analysis':<14} {'lower':>12} {'upper':>12}   witnesses"
    lines = [header, "-" * len(header)]
    for criterion, iv in intervals.items():
        lines.append(
            f"{CRITERION_TABLE[criterion].label:<14} "
            f"{_fmt_bound(iv.lower):>12} "
            f"{_fmt_bound(iv.upper):>12}   "
            f"{_fmt_witnesses(iv, '{:.6g}'.format, ' ', ', ')}"
        )
    return "\n".join(lines) + "\n"


def format_report_csv(intervals: dict, margin: float) -> str:
    """One row per interval, in the order of ``intervals``; every row records
    the stability margin m of the run."""
    lines = ["criterion,lower,upper,lower_unbounded,upper_unbounded,stability_margin,witnesses"]
    for criterion, iv in intervals.items():
        # repr of float(x): a numpy scalar would print as np.float64(...)
        wit = _fmt_witnesses(iv, lambda x: repr(float(x)), ";", " ")
        lines.append(
            f"{criterion},{iv.lower!r},{iv.upper!r},"
            f"{int(iv.lower_unbounded)},{int(iv.upper_unbounded)},{float(margin)!r},{wit}"
        )
    return "\n".join(lines) + "\n"


def _number(fields: list, i: int) -> float:
    """fields[i] as a float; nan if it is missing or not a number."""
    try:
        return float(fields[i])
    except (IndexError, ValueError):
        return np.nan


def read_report(text: str) -> tuple[float | None, dict]:
    """The stability margin and the intervals of a format_report_csv report,
    read in one pass.  The intervals come from their bounds alone (a side is
    unbounded exactly when its bound is -inf or inf), in CRITERIA order; the
    margin is None if the header has no stability_margin column.  A report
    with no rows raises ValueError, and so does a row that names no criterion,
    repeats one, lacks two numeric bounds, has a lower bound not below its
    upper one or, with that column, lacks a numeric margin or records another
    than the first row's, naming the first faulty line.  So does a first line
    whose fields do not start criterion,lower,upper."""
    rows = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if rows and rows[0][1].split(",")[:3] != ["criterion", "lower", "upper"]:
        raise ValueError(f"line {rows[0][0]} is not a header starting criterion,lower,upper: "
                         f"{rows[0][1]!r}")
    if len(rows) < 2:
        raise ValueError("the report holds no interval rows")
    header = rows[0][1].split(",")
    col = header.index("stability_margin") if "stability_margin" in header else None
    margin, intervals = None, {}
    for lineno, line in rows[1:]:
        fields = line.split(",")
        name, lower, upper = fields[0], _number(fields, 1), _number(fields, 2)
        if name not in CRITERIA:
            raise ValueError(f"line {lineno} names no criterion of {', '.join(CRITERIA)}: {line!r}")
        if name in intervals:
            raise ValueError(f"line {lineno} repeats criterion {name}: {line!r}")
        if np.isnan([lower, upper]).any():
            raise ValueError(f"line {lineno} has no numeric lower and upper bound: {line!r}")
        if not lower < upper:
            raise ValueError(f"line {lineno} has a lower bound not below its upper bound: {line!r}")
        if col is not None:
            m = _number(fields, col)
            if np.isnan(m):
                raise ValueError(f"line {lineno} has no numeric stability margin: {line!r}")
            if margin is not None and m != margin:
                raise ValueError(f"line {lineno} records stability margin {m!r}, "
                                 f"but line {rows[1][0]} records {margin!r}")
            margin = m
        intervals[name] = StabilityInterval(lower=lower, upper=upper, criterion=name, witnesses={})
    return margin, {name: intervals[name] for name in CRITERIA if name in intervals}


def parse_report_csv(text: str) -> dict:
    """The intervals of read_report(text) alone."""
    return read_report(text)[1]


def format_matrix(name: str, mat: np.ndarray) -> str:
    lines = [f"{name} ="]
    mat = np.atleast_2d(mat)
    for row in mat:
        lines.append("  " + "  ".join(f"{x: .10g}" for x in row))
    return "\n".join(lines)


def format_zpk(zeros, poles, gain: float) -> str:
    def roots(rs):
        if not len(rs):
            return "(none)"
        return ", ".join(
            f"{r.real:.6g}" if abs(r.imag) < 1e-12 else f"{r.real:.6g}{r.imag:+.6g}j"
            for r in rs
        )

    return (
        f"  gain : {gain:.6g}\n"
        f"  zeros: {roots(zeros)}\n"
        f"  poles: {roots(poles)}"
    )


def format_model_dump(session: AnalysisSession) -> str:
    """Structured text dump of every matrix built along the pipeline."""
    margin = session.model.margin
    parts = [
        "# cgmargin model dump",
        format_matrix("A_open", session.open_plant.nominal.A),
        format_matrix("B_open", session.open_plant.nominal.B),
        format_matrix("C_open", session.open_plant.nominal.C),
        format_matrix("D_open", session.open_plant.nominal.D),
        format_matrix("A_augmented", session.augmented.nominal.A),
        format_matrix("Q_A", session.augmented.Q_A),
        format_matrix("Q_B", session.augmented.Q_B),
        format_matrix(f"H + {margin!r}*I (stability margin)" if margin else "H", session.model.H),
        format_matrix("Qcal", session.model.Qcal),
        f"sigma = {session.model.sigma!r}",
        format_matrix("v", session.model.v.reshape(1, -1)),
        format_matrix("w", session.model.w.reshape(1, -1)),
        "eta_to_theta zpk:",
        format_zpk(*zpk_of_ss(session.augmented.nominal)),
        "",
    ]
    return "\n\n".join(parts)
