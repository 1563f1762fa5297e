import dataclasses
import math

import numpy as np
import pytest

from cgmargin import AnalysisConfig, build_session, run_analysis
from cgmargin.criteria import StabilityInterval, sample_locus
from cgmargin.errors import UnstableFixedPartError
from cgmargin.mdelta import model_of

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@pytest.fixture(scope="session")
def default_config():
    return AnalysisConfig()


@pytest.fixture(scope="session")
def session(default_config):
    return build_session(default_config)


@pytest.fixture(scope="session")
def result(default_config, session):
    return run_analysis(default_config, session=session)


def dense_response(M, omegas):
    """Vectorized frequency sweep via eigendecomposition of the state matrix.

    Independent of the per-frequency linear-solve path used by the
    implementation; used as a brute-force oracle in tests.
    """
    lam, V = np.linalg.eig(M.A)
    bb = np.linalg.solve(V, M.B[:, 0])
    cc = M.C[0, :] @ V
    out = np.empty(omegas.shape, dtype=complex)
    chunk = 100_000
    for i in range(0, omegas.size, chunk):
        om = omegas[i : i + chunk]
        out[i : i + chunk] = (
            cc[None, :] * (bb[None, :] / (1j * om[:, None] - lam[None, :]))
        ).sum(axis=1)
    return out


def eval_zpk(zeros, poles, gain, s: complex) -> complex:
    """gain * prod(s - z) / prod(s - p), evaluated from the factors."""
    return complex(gain * np.prod(s - np.asarray(zeros)) / np.prod(s - np.asarray(poles)))


def uncertain_derivatives(dd, delta: float):
    """Shift the pitching-moment derivatives for a c.g. displacement delta.

    Each M-family derivative moves by -Z(same subscript)*delta; the X and
    Z families are unchanged.  The reference that the rank-1 perturbation
    matrices are checked against.
    """
    return dataclasses.replace(
        dd,
        Mu=dd.Mu - dd.Zu * delta,
        Mw=dd.Mw - dd.Zw * delta,
        Mwdot=dd.Mwdot - dd.Zwdot * delta,
        Mq=dd.Mq - dd.Zq * delta,
        Meta=dd.Meta - dd.Zeta * delta,
    )


def golden_min(f, a: float, b: float, rel_tol: float = 1e-9, max_iter: int = 200):
    """Golden-section minimum of a unimodal f on [a, b]; returns (x, f(x)).

    A search independent of the program's exact minimax, for oracles.
    """
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


def max_real_part(model, delta):
    """Largest eigenvalue real part of H + delta*Qcal, one matrix at a time."""
    return float(np.linalg.eigvals(model.H + delta * model.Qcal).real.max())


def _bisect_boundary(model, stable, unstable, tol, margin):
    while abs(unstable - stable) > tol:
        mid = 0.5 * (stable + unstable)
        if max_real_part(model, mid) < -margin:
            stable = mid
        else:
            unstable = mid
    return 0.5 * (stable + unstable)


def scan_exact_bounds(model, lo=-100.0, hi=10.0, step=0.01, delta_tol=1e-6, margin=0.0):
    """Exact interval by brute-force outward scan plus bisection.

    Independent of the frequency-domain locus; the second route that must
    agree with exact_bounds.
    """
    if max_real_part(model, 0.0) >= -margin:
        raise UnstableFixedPartError("nominal closed loop is not stable")

    def march(limit, sign):
        d = 0.0
        while sign * d < sign * limit:
            nxt = d + sign * step
            if sign * nxt > sign * limit:
                nxt = limit
            if max_real_part(model, nxt) >= -margin:
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
    )


def random_rank_one_model(rng, n=6, shift=0.5):
    """Random stable state matrix with a random rank-1 perturbation."""
    A = rng.normal(size=(n, n))
    A = A - (np.max(np.linalg.eigvals(A).real) + shift) * np.eye(n)
    return model_of(A, np.outer(rng.normal(size=n), rng.normal(size=n)))


@pytest.fixture(scope="session")
def random_models():
    rng = np.random.default_rng(20240817)
    return [random_rank_one_model(rng) for _ in range(10)]


@pytest.fixture(scope="session")
def random_summaries(random_models):
    return [
        sample_locus(m.M, wmin=1e-3, wmax=1e3, n=600) for m in random_models
    ]
