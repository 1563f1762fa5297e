"""Longitudinal aircraft model with an uncertain center-of-gravity location.

A model is built in three steps: ``longitudinal_plant`` assembles the
linearized longitudinal equations of motion from flight-condition data and
dimensional derivatives (``dimensionalize``); ``build_uncertain_plant`` adds
the rank-1 perturbation matrices that capture a fore/aft c.g. shift of
``delta`` meters; ``augment_uncertain_plant`` closes the inner-loop pitch
stabilization around both.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ModelFileError, SingularMassMatrixError
from .lti import StateSpace

DEFAULT_MODEL_RESOURCE = "aircraft_cook_fbw.cfg"

STANDARD_GRAVITY = 9.81


@dataclass(frozen=True)
class FlightCondition:
    """Flight-condition constants, SI units."""

    V0: float       # airspeed, m/s
    m: float        # mass, kg
    Iy: float       # pitch inertia, kg m^2
    rho: float      # air density, kg/m^3
    S: float        # wing area, m^2
    c: float        # mean aerodynamic chord, m
    g: float = STANDARD_GRAVITY

    def __post_init__(self):
        for f in fields(self):
            if not 0 < getattr(self, f.name) < np.inf:   # nan fails too
                raise ValueError(f"flight condition field {f.name} must be positive and finite")


@dataclass(frozen=True)
class DimensionlessDerivatives:
    """Dimensionless stability and control derivatives.

    The eta control derivatives are the elevator (delta_e) column of the
    source data.
    """

    X_u: float
    X_w: float
    X_wdot: float
    X_q: float
    X_eta: float
    Z_u: float
    Z_w: float
    Z_wdot: float
    Z_q: float
    Z_eta: float
    M_u: float
    M_w: float
    M_wdot: float
    M_q: float
    M_eta: float


@dataclass(frozen=True)
class DimensionalDerivatives:
    """Dimensional stability and control derivatives, SI units."""

    Xu: float
    Xw: float
    Xwdot: float
    Xq: float
    Xeta: float
    Zu: float
    Zw: float
    Zwdot: float
    Zq: float
    Zeta: float
    Mu: float
    Mw: float
    Mwdot: float
    Mq: float
    Meta: float


@dataclass(frozen=True)
class UncertainPlant:
    """State-space plant plus the rank-1 c.g.-shift perturbation.

    The perturbed model is A + delta*Q_A, B + delta*Q_B with delta the
    rearward c.g. displacement in meters.  All nonzero perturbation
    entries sit in the pitch-acceleration row (row index 2).
    """

    nominal: StateSpace
    Q_A: np.ndarray
    Q_B: np.ndarray


def dimensionalize(fc: FlightCondition, d: DimensionlessDerivatives) -> DimensionalDerivatives:
    """Convert dimensionless derivatives to SI dimensional form.

    Normalization: velocity derivatives scale by rho*V0*S/2, wdot
    derivatives by rho*S*c/2, pitch-rate derivatives by rho*V0*S*c/2,
    and control derivatives by rho*V0^2*S/2; moment derivatives carry an
    extra chord length throughout.
    """
    k = 0.5 * fc.rho * fc.S
    V0, c = fc.V0, fc.c
    return DimensionalDerivatives(
        Xu=k * V0 * d.X_u,
        Xw=k * V0 * d.X_w,
        Xwdot=k * c * d.X_wdot,
        Xq=k * V0 * c * d.X_q,
        Xeta=k * V0 ** 2 * d.X_eta,
        Zu=k * V0 * d.Z_u,
        Zw=k * V0 * d.Z_w,
        Zwdot=k * c * d.Z_wdot,
        Zq=k * V0 * c * d.Z_q,
        Zeta=k * V0 ** 2 * d.Z_eta,
        Mu=k * V0 * c * d.M_u,
        Mw=k * V0 * c * d.M_w,
        Mwdot=k * c ** 2 * d.M_wdot,
        Mq=k * V0 * c ** 2 * d.M_q,
        Meta=k * V0 ** 2 * c * d.M_eta,
    )


def longitudinal_plant(fc: FlightCondition, dd: DimensionalDerivatives) -> StateSpace:
    """Explicit state space A = Mass^-1 A_t, B = Mass^-1 B_t of the implicit
    form  Mass * xdot = A_t x + B_t eta.

    States are (u, w, q, theta), row 4 being the kinematic relation
    thetadot = q; outputs are (theta, q, alpha) with alpha = w / V0; D = 0.
    det Mass = m (m - Zwdot) Iy, so m - Zwdot > 0 makes Mass invertible.
    """
    m, V0, g, Iy = fc.m, fc.V0, fc.g, fc.Iy
    if m - dd.Zwdot <= 0:
        raise SingularMassMatrixError(
            f"m - Zwdot = {m - dd.Zwdot} <= 0; mass matrix not invertible"
        )
    Mass = np.array(
        [
            [m, -dd.Xwdot, 0.0, 0.0],
            [0.0, m - dd.Zwdot, 0.0, 0.0],
            [0.0, -dd.Mwdot, Iy, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    A_t = np.array(
        [
            [dd.Xu, dd.Xw, dd.Xq, -m * g],
            [dd.Zu, dd.Zw, dd.Zq + m * V0, 0.0],
            [dd.Mu, dd.Mw, dd.Mq, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    B_t = np.array([[dd.Xeta], [dd.Zeta], [dd.Meta], [0.0]])
    C = np.array(
        [
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 1.0 / V0, 0.0, 0.0],
        ]
    )
    return StateSpace(np.linalg.solve(Mass, A_t), np.linalg.solve(Mass, B_t), C, np.zeros((3, 1)))


def build_uncertain_plant(fc: FlightCondition, d: DimensionlessDerivatives) -> UncertainPlant:
    """Open-loop (inner loop not yet closed) uncertain aircraft model.

    The perturbed model A + delta*Q_A, B + delta*Q_B agrees exactly with
    rebuilding the aircraft from the shifted derivatives: the
    delta-dependence of the mass matrix cancels identically against the
    shifted pitching-moment rows, leaving the scale mu = m / (Iy (m - Zwdot)).
    """
    dd = dimensionalize(fc, d)
    nominal = longitudinal_plant(fc, dd)
    mu = fc.m / (fc.Iy * (fc.m - dd.Zwdot))
    Q_A = np.zeros((4, 4))
    Q_A[2, :] = -mu * np.array([dd.Zu, dd.Zw, dd.Zq + dd.Zwdot * fc.V0, 0.0])
    Q_B = np.zeros((4, 1))
    Q_B[2, 0] = -mu * dd.Zeta
    return UncertainPlant(nominal=nominal, Q_A=Q_A, Q_B=Q_B)


def augment_uncertain_plant(plant: UncertainPlant, Kq: float, Kalpha: float) -> UncertainPlant:
    """Close the inner loop eta = eta_cmd - Kq*q - Kalpha*alpha, keep the theta
    output (the SISO elevator-to-attitude channel) and map the perturbation
    through the loop.

    The c.g. shift perturbs the plant upstream of the inner feedback, so
    the augmented perturbations are Q_A' = Q_A - Q_B K C and Q_B' = Q_B;
    both stay confined to the pitch-acceleration row and remain rank 1.
    """
    p = plant.nominal
    K = np.array([[0.0, Kq, Kalpha]])   # static output feedback over (theta, q, alpha)
    siso = StateSpace(p.A - p.B @ K @ p.C, p.B, p.C[:1, :], np.zeros((1, 1)))
    Q_A = plant.Q_A - plant.Q_B @ K @ p.C
    return UncertainPlant(nominal=siso, Q_A=Q_A, Q_B=plant.Q_B.copy())


# ---------------------------------------------------------------------------
# Model-definition files

_FC_FIELDS = {f.name for f in fields(FlightCondition)}
_FC_REQUIRED = {f.name for f in fields(FlightCondition) if f.default is MISSING}
_DL_FIELDS = {f.name for f in fields(DimensionlessDerivatives)}


def load_model_file(path) -> tuple[FlightCondition, DimensionlessDerivatives]:
    """Parse a plain-text model file of ``name = value`` lines.

    Blank lines and ``#`` comments are ignored.  Field names are the
    FlightCondition and DimensionlessDerivatives field names; an unknown,
    missing, non-finite or out-of-range field raises ModelFileError.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    return parse_model_text(text, source=str(path))


def parse_model_text(text: str, source: str = "<string>"):
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ModelFileError(
                f"{source}:{lineno}: expected 'name = value', got {raw!r}"
            )
        name, _, val = line.partition("=")
        name = name.strip()
        if name not in _FC_FIELDS and name not in _DL_FIELDS:
            raise ModelFileError(f"{source}:{lineno}: unknown field {name!r}")
        if name in values:
            raise ModelFileError(f"{source}:{lineno}: duplicate field {name!r}")
        try:
            values[name] = float(val.strip())
        except ValueError as exc:
            raise ModelFileError(
                f"{source}:{lineno}: field {name!r} has non-numeric value "
                f"{val.strip()!r}"
            ) from exc
        if not np.isfinite(values[name]):
            raise ModelFileError(f"{source}:{lineno}: field {name!r} is not finite: {val.strip()!r}")
    missing = sorted((_FC_REQUIRED | _DL_FIELDS) - set(values))
    if missing:
        raise ModelFileError(
            f"{source}: missing required field(s): {', '.join(missing)}"
        )
    try:
        fc = FlightCondition(**{k: v for k, v in values.items() if k in _FC_FIELDS})
    except ValueError as exc:
        raise ModelFileError(f"{source}: {exc}") from exc
    dl = DimensionlessDerivatives(
        **{k: v for k, v in values.items() if k in _DL_FIELDS}
    )
    return fc, dl


def format_model_text(fc: FlightCondition, dl: DimensionlessDerivatives) -> str:
    """Render a model back to the file format accepted by load_model_file."""
    lines = ["# cgmargin model definition", "", "# flight condition (SI units)"]
    for f in fields(FlightCondition):
        lines.append(f"{f.name} = {getattr(fc, f.name)!r}")
    lines.append("")
    lines.append("# dimensionless derivatives")
    for f in fields(DimensionlessDerivatives):
        lines.append(f"{f.name} = {getattr(dl, f.name)!r}")
    lines.append("")
    return "\n".join(lines)


def default_model_path() -> Path:
    """Path of the bundled model file (canard FBW combat aircraft data)."""
    return Path(resources.files(__package__) / "data" / DEFAULT_MODEL_RESOURCE)


def load_default_model() -> tuple[FlightCondition, DimensionlessDerivatives]:
    return load_model_file(default_model_path())
