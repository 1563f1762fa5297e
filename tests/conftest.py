import dataclasses
import math

import numpy as np
import pytest

from cgmargin import AnalysisConfig, build_session, run_analysis
from cgmargin.criteria import StabilityInterval, sample_locus
from cgmargin.errors import UnstableFixedPartError
from cgmargin.lti import ss_from_zpk
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


def _bialternate(A):
    """The bialternate sum 2A (.) I: the matrix of X -> AX + XA^T on the
    antisymmetric X with coordinates X[p, q], p < q.  Its eigenvalues are the
    sums lambda_i + lambda_j, i < j, of A's."""
    n = A.shape[0]
    p, q = np.triu_indices(n, 1)
    L = np.kron(A, np.eye(n)) + np.kron(np.eye(n), A)
    return L[p * n + q][:, p * n + q] - L[p * n + q][:, q * n + p]


def guardian_exact_bounds(H, Qcal, zero_rtol=1e-10, imag_rtol=3e-7, axis_rtol=1e-6):
    """Exact interval of H + delta*Qcal from the guardian map
    det(H + delta*Qcal) * det((H + delta*Qcal) (.) I), with unbounded sides.

    An eigenvalue reaches the jw-axis at 0 or as a pair +-jw, whose sum is 0.
    For Qcal = a b^T, det(H + delta*Qcal) = 0 at delta = -1/mu0 with
    mu0 = b^T H^-1 a.  The bialternate sum is linear, and that of Qcal is
    U V^T of rank n - 1 (X -> y a^T - a y^T with y = Xb), so the pairs reach
    the axis at delta = -1/mu for the real eigenvalues mu of the n x n
    W = V^T (H (.) I)^-1 U.  A mu that is a rounding zero, to zero_rtol of
    |b| |H^-1 a| or of |W|_1, is dropped.  A pair's delta is kept only if
    H + delta*Qcal has an eigenvalue with |Re| <= axis_rtol*|Im|: a real pair
    +-x sums to 0 too, and so does the rounding of a defective zero of W,
    about sqrt(eps) when b^T a = 0.
    At a stability margin m, pass H + m*I.  Independent of M, of the
    frequency response and of any range or step in delta.
    """
    H = np.asarray(H, dtype=float)
    u, s, vt = np.linalg.svd(Qcal)
    a, b = s[0] * u[:, 0], vt[0]
    x = np.linalg.solve(H, a)
    mu0 = b @ x
    kept = [-1.0 / mu0] if abs(mu0) > zero_rtol * np.linalg.norm(b) * np.linalg.norm(x) else []
    n = H.shape[0]
    p, q = np.triu_indices(n, 1)
    k = np.arange(p.size)
    U, Vt = np.zeros((p.size, n)), np.zeros((n, p.size))
    U[k, p], U[k, q] = a[q], -a[p]
    Vt[p, k], Vt[q, k] = b[q], -b[p]
    W = Vt @ np.linalg.solve(_bialternate(H), U)
    mu = np.linalg.eigvals(W)
    real = ((np.abs(mu) > zero_rtol * np.linalg.norm(W, 1))
            & (np.abs(mu.imag) <= imag_rtol * np.abs(mu)))
    for delta in -1.0 / mu[real].real:
        lam = np.linalg.eigvals(H + delta * Qcal)
        if (np.abs(lam.real) <= axis_rtol * np.abs(lam.imag)).any():
            kept.append(delta)
    kept = np.array(kept)
    return StabilityInterval(
        lower=kept[kept < 0].max(initial=-math.inf),
        upper=kept[kept > 0].min(initial=math.inf),
        criterion="exact",
        witnesses={"route": "guardian"},
    )


def random_rank_one_model(rng, n=6, shift=0.5):
    """Random stable state matrix with a random rank-1 perturbation."""
    A = rng.normal(size=(n, n))
    A = A - (np.max(np.linalg.eigvals(A).real) + shift) * np.eye(n)
    return model_of(A, np.outer(rng.normal(size=n), rng.normal(size=n)))


def split_pair_model():
    """The M-Delta model of a 7-state M with a jw-axis zero pair at w = 2.916
    whose left Popov line binds near the lightly damped poles -0.083 +-
    0.203j.  At 40 samples that line's crossing solve gives the pair w =
    0.11574, 0.11580 about 1.13e-8 |z| off the jw-axis."""
    pair, light = complex(-0.7912024050138563, 2.801645431759568), complex(
        -0.08307530302008383, 0.20270571812475335)
    M = ss_from_zpk(
        [2.9162945060713086j, -2.9162945060713086j, -0.19578197972199568, 0.8137153567565685,
         1.5427719180481096, 0.9990696542897193],
        [-1.6580186605093752, -2.093931590497234, -2.0737570267529333, pair, pair.conjugate(),
         light, light.conjugate()],
        4.050735619265838,
    )
    return model_of(M.A, -M.B @ M.C)


@pytest.fixture(scope="session")
def random_models():
    rng = np.random.default_rng(20240817)
    return [random_rank_one_model(rng) for _ in range(10)]


@pytest.fixture(scope="session")
def random_summaries(random_models):
    return [
        sample_locus(m.M, wmin=1e-3, wmax=1e3, n=600) for m in random_models
    ]
