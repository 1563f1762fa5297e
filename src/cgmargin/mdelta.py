"""Assembly of the uncertain closed loop and its rank-1 M-Delta structure.

The uncertain closed-loop state matrix is H + delta*Qcal with Qcal of
rank 1, so the eigenvalue locus in delta equals the root locus of a SISO
system M(s) under constant gain feedback.  This module builds H, Qcal,
the rank-1 factors, and M(s).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aircraft import UncertainPlant
from .errors import (DimensionError, RepresentationError, UnstableFixedPartError,
                     UnsupportedRankError)
from .lti import StateSpace

RANK_RATIO_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class MDeltaModel:
    """Closed-loop matrix H, perturbation Qcal = sigma*v*w^T, and M(s).

    M is realized as (H, sigma*v, -w^T, 0): with that sign, closing the
    loop with gain delta in *negative* feedback reproduces H + delta*Qcal,
    and the real-axis intercept x of the Nyquist locus maps to the
    stability bound delta = -1/x.
    """

    H: np.ndarray
    Qcal: np.ndarray
    sigma: float
    v: np.ndarray
    w: np.ndarray
    M: StateSpace
    margin: float = 0.0   # m of a model built on H + m*I (model_of)

    def __post_init__(self):
        if not (self.M.A is self.H or np.array_equal(self.M.A, self.H)):
            raise DimensionError("M must be realized on H: M.A differs from H")


def closed_loop_uncertain(plant: UncertainPlant, controller: StateSpace):
    """Uncertain closed loop of plant and controller under unity feedback.

    Returns (H, Qcal): H is the nominal closed-loop state matrix with
    states [x_plant; x_controller]; Qcal carries the plant perturbation,
    with zero rows in the controller-state block.
    """
    p = plant.nominal
    if np.any(p.D != 0):
        raise DimensionError("plant must be strictly proper (D = 0)")
    Ap, Bp, Cp = p.A, p.B, p.C
    Ak, Bk, Ck, Dk = controller.A, controller.B, controller.C, controller.D
    if Bp.shape[1] != Ck.shape[0] or Bk.shape[1] != Cp.shape[0]:
        raise DimensionError("plant/controller I/O dimensions do not match")
    n_p, n_k = Ap.shape[0], Ak.shape[0]
    H = np.block(
        [
            [Ap - Bp @ Dk @ Cp, Bp @ Ck],
            [-Bk @ Cp, Ak],
        ]
    )
    Qcal = np.block(
        [
            [plant.Q_A - plant.Q_B @ Dk @ Cp, plant.Q_B @ Ck],
            [np.zeros((n_k, n_p)), np.zeros((n_k, n_k))],
        ]
    )
    return H, Qcal


def rank_one_factor(Qcal: np.ndarray):
    """Factor Qcal = sigma * v * w^T via SVD.

    Sign convention: the first nonzero entry of v is positive, with the
    sign absorbed into w, so repeated factorizations are bitwise
    identical.
    """
    Qcal = np.asarray(Qcal, dtype=float)
    U, s, Vt = np.linalg.svd(Qcal)
    if s[0] <= 0:
        raise UnsupportedRankError("perturbation matrix is zero")
    if s.size > 1 and s[1] / s[0] >= RANK_RATIO_TOL:
        raise UnsupportedRankError(
            f"effective rank > 1: sigma2/sigma1 = {s[1] / s[0]:.3e}"
        )
    v = U[:, 0].copy()
    w = Vt[0, :].copy()
    lead = v[np.abs(v) > 0]
    if lead.size and lead[0] < 0:
        v = -v
        w = -w
    return float(s[0]), v, w


def m_transfer(H: np.ndarray, sigma: float, v: np.ndarray, w: np.ndarray) -> StateSpace:
    """SISO fixed part M(s) = -w^T (sI - H)^-1 sigma*v.

    Closing M with gain delta in negative feedback gives the state matrix
    H + delta*sigma*v*w^T.
    """
    return StateSpace(H, (sigma * np.asarray(v)).reshape(-1, 1),
                      -np.asarray(w).reshape(1, -1), np.zeros((1, 1)))


def model_of(H: np.ndarray, Qcal: np.ndarray, margin: float = 0.0) -> MDeltaModel:
    """M-Delta model of H + delta*Qcal for a rank-1 Qcal, at stability margin m.

    For m != 0 it is built on H + m*I, so M is M(s - m) and every result read
    off it keeps the eigenvalues of H + delta*Qcal left of Re s = -m; for m = 0
    it holds H itself, not a copy.  H need not be stable (see build_mdelta),
    but H + m*I and Qcal must be finite: an overflowed input is refused.
    """
    H = np.asarray(H, dtype=float)
    if margin != 0.0:
        H = H + margin * np.eye(H.shape[0])
    for name, mat in (("H", H), ("Qcal", Qcal)):
        if not np.isfinite(mat).all():
            raise RepresentationError(f"{name} has an entry that is not finite: an input overflowed")
    sigma, v, w = rank_one_factor(Qcal)
    return MDeltaModel(H=H, Qcal=Qcal, sigma=sigma, v=v, w=w,
                       M=m_transfer(H, sigma, v, w), margin=margin)


def build_mdelta(plant: UncertainPlant, controller: StateSpace, margin: float = 0.0) -> MDeltaModel:
    """Full M-Delta model of the uncertain closed loop at stability margin m
    (model_of).  Raises UnstableFixedPartError if the slowest nominal mode,
    read off ``M.poles`` (kept on M for the criteria), does not clear m."""
    model = model_of(*closed_loop_uncertain(plant, controller), margin)
    slowest = model.M.poles.real.max()
    if not slowest < 0.0:
        raise UnstableFixedPartError(
            f"nominal closed loop is unstable at stability margin {margin:g}: its slowest "
            f"mode, at Re s = {slowest - margin:.5g}, does not clear it"
        )
    return model


def closed_loop_matrix(model: MDeltaModel, delta: float) -> np.ndarray:
    """State matrix H + delta*Qcal of the perturbed closed loop."""
    return model.H + delta * model.Qcal
