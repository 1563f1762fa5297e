"""End-to-end orchestration: model file -> M-Delta model -> stability table."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import aircraft, criteria, mdelta
from .criteria import CRITERIA, LocusSummary, StabilityInterval, VerificationReport
from .lti import StateSpace, TransferFunction, ss_realize, tf_from_zpk, tf_of_ss

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


def default_controller() -> TransferFunction:
    return tf_from_zpk(
        DEFAULT_CONTROLLER_ZEROS, DEFAULT_CONTROLLER_POLES, DEFAULT_CONTROLLER_GAIN
    )


@dataclass
class AnalysisConfig:
    """All knobs of an analysis run; defaults reproduce the bundled model."""

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
    circle_center: str = "optimal"
    n_verify: int = 50

    def __post_init__(self):
        if self.wmin <= 0 or self.wmax <= self.wmin:
            raise ValueError("frequency window must satisfy 0 < wmin < wmax")
        if not self.criteria:
            raise ValueError("criterion selection set must be nonempty")
        unknown = set(self.criteria) - set(CRITERIA)
        if unknown:
            raise ValueError(f"unknown criteria: {sorted(unknown)}")


@dataclass
class AnalysisSession:
    """Everything built on the way from the model file to the locus."""

    fc: aircraft.FlightCondition
    dl: aircraft.DimensionlessDerivatives
    open_plant: aircraft.UncertainPlant
    augmented: aircraft.UncertainPlant
    controller: StateSpace
    controller_tf: TransferFunction
    model: mdelta.MDeltaModel
    summary: LocusSummary

    @property
    def nominal_tf(self) -> TransferFunction:
        """Elevator-to-attitude transfer function of the augmented aircraft."""
        return tf_of_ss(self.augmented.nominal)


@dataclass
class AnalysisResult:
    session: AnalysisSession
    intervals: dict = field(default_factory=dict)   # criterion -> interval
    reports: dict = field(default_factory=dict)     # criterion -> report

    @property
    def all_sound(self) -> bool:
        return all(r.passed for r in self.reports.values())


def build_session(config: AnalysisConfig) -> AnalysisSession:
    path = config.model_path or aircraft.default_model_path()
    fc, dl = aircraft.load_model_file(path)
    open_plant = aircraft.build_uncertain_plant(fc, dl)
    augmented = aircraft.augment_uncertain_plant(open_plant, config.kq, config.kalpha)
    controller_tf = tf_from_zpk(
        config.controller_zeros, config.controller_poles, config.controller_gain
    )
    controller = ss_realize(controller_tf)
    model = mdelta.build_mdelta(augmented, controller)
    summary = criteria.sample_locus(
        model.M, wmin=config.wmin, wmax=config.wmax, n=config.npoints
    )
    return AnalysisSession(
        fc=fc,
        dl=dl,
        open_plant=open_plant,
        augmented=augmented,
        controller=controller,
        controller_tf=controller_tf,
        model=model,
        summary=summary,
    )


def compute_interval(
    session: AnalysisSession, criterion: str, config: AnalysisConfig
) -> StabilityInterval:
    if criterion == "exact":
        return criteria.exact_bounds(session.model, margin=config.stability_margin)
    if criterion == "small_gain":
        return criteria.small_gain_bounds(session.summary)
    if criterion == "circle":
        return criteria.circle_bounds(session.summary, center=config.circle_center)
    if criterion == "positive_real":
        return criteria.positive_real_bounds(session.summary)
    if criterion == "popov":
        return criteria.popov_bounds(session.summary)
    raise ValueError(f"unknown criterion {criterion!r}")


def run_analysis(config: AnalysisConfig, session: AnalysisSession | None = None) -> AnalysisResult:
    """Compute the selected criteria and verify every finite interval."""
    session = session or build_session(config)
    result = AnalysisResult(session=session)
    ordered = [c for c in CRITERIA if c in config.criteria]
    for criterion in ordered:
        interval = compute_interval(session, criterion, config)
        result.intervals[criterion] = interval
        if not (interval.lower_unbounded or interval.upper_unbounded):
            result.reports[criterion] = criteria.verify_interval(
                session.model,
                interval,
                config.n_verify,
                margin=config.stability_margin,
            )
    return result


# ---------------------------------------------------------------------------
# Report rendering

_CRITERION_LABELS = {
    "exact": "Exact",
    "small_gain": "Small gain",
    "circle": "Circle",
    "positive_real": "Positive real",
    "popov": "Popov",
}


def _fmt_bound(value: float, unbounded: bool) -> str:
    return "unbounded" if unbounded else f"{value:.6g}"


def _fmt_witnesses(interval: StabilityInterval) -> str:
    parts = []
    for key, val in interval.witnesses.items():
        if val is None:
            continue
        if isinstance(val, tuple):
            val = "(" + ", ".join(f"{x:.6g}" for x in val) + ")"
        elif isinstance(val, float):
            val = f"{val:.6g}"
        parts.append(f"{key}={val}")
    return " ".join(parts)


def format_report_table(intervals: dict) -> str:
    """Aligned text table, exact row first."""
    header = f"{'Analysis':<14} {'lower':>12} {'upper':>12}   witnesses"
    lines = [header, "-" * len(header)]
    for criterion in CRITERIA:
        if criterion not in intervals:
            continue
        iv = intervals[criterion]
        lines.append(
            f"{_CRITERION_LABELS[criterion]:<14} "
            f"{_fmt_bound(iv.lower, iv.lower_unbounded):>12} "
            f"{_fmt_bound(iv.upper, iv.upper_unbounded):>12}   "
            f"{_fmt_witnesses(iv)}"
        )
    return "\n".join(lines) + "\n"


def format_report_csv(intervals: dict) -> str:
    lines = ["criterion,lower,upper,lower_unbounded,upper_unbounded,witnesses"]
    for criterion in CRITERIA:
        if criterion not in intervals:
            continue
        iv = intervals[criterion]
        wit = ";".join(
            f"{k}={_csv_value(v)}" for k, v in iv.witnesses.items() if v is not None
        )
        lines.append(
            f"{criterion},{iv.lower!r},{iv.upper!r},"
            f"{int(iv.lower_unbounded)},{int(iv.upper_unbounded)},{wit}"
        )
    return "\n".join(lines) + "\n"


def _csv_value(v) -> str:
    if isinstance(v, tuple):
        return "(" + " ".join(repr(float(x)) for x in v) + ")"
    if isinstance(v, float):
        return repr(float(v))   # a numpy scalar would print as np.float64(...)
    return str(v)


def parse_report_csv(text: str) -> dict:
    """Read back the intervals written by format_report_csv (bounds only)."""
    intervals: dict[str, StabilityInterval] = {}
    lines = [ln for ln in text.splitlines() if ln.strip()]
    for line in lines[1:]:
        fields = line.split(",")
        criterion, lower, upper, lo_unb, up_unb = fields[:5]
        intervals[criterion] = StabilityInterval(
            lower=float(lower),
            upper=float(upper),
            criterion=criterion,
            witnesses={},
            lower_unbounded=bool(int(lo_unb)),
            upper_unbounded=bool(int(up_unb)),
        )
    return intervals


def format_matrix(name: str, mat: np.ndarray) -> str:
    lines = [f"{name} ="]
    mat = np.atleast_2d(mat)
    for row in mat:
        lines.append("  " + "  ".join(f"{x: .10g}" for x in row))
    return "\n".join(lines)


def format_zpk(tf: TransferFunction) -> str:
    def roots(rs):
        if not rs:
            return "(none)"
        return ", ".join(
            f"{r.real:.6g}" if abs(r.imag) < 1e-12 else f"{r.real:.6g}{r.imag:+.6g}j"
            for r in rs
        )

    return (
        f"  gain : {tf.gain:.6g}\n"
        f"  zeros: {roots(tf.zeros)}\n"
        f"  poles: {roots(tf.poles)}"
    )


def format_model_dump(session: AnalysisSession) -> str:
    """Structured text dump of every matrix built along the pipeline."""
    parts = [
        "# cgmargin model dump",
        format_matrix("A_open", session.open_plant.nominal.A),
        format_matrix("B_open", session.open_plant.nominal.B),
        format_matrix("C_open", session.open_plant.nominal.C),
        format_matrix("D_open", session.open_plant.nominal.D),
        format_matrix("A_augmented", session.augmented.nominal.A),
        format_matrix("Q_A", session.augmented.Q_A),
        format_matrix("Q_B", session.augmented.Q_B),
        format_matrix("H", session.model.H),
        format_matrix("Qcal", session.model.Qcal),
        f"sigma = {session.model.sigma!r}",
        format_matrix("v", session.model.v.reshape(1, -1)),
        format_matrix("w", session.model.w.reshape(1, -1)),
        "eta_to_theta zpk:",
        format_zpk(session.nominal_tf),
        "",
    ]
    return "\n\n".join(parts)
