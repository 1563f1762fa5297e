import numpy as np
import pytest

from cgmargin import AnalysisConfig, build_session, run_analysis
from cgmargin.criteria import sample_locus
from cgmargin.mdelta import MDeltaModel, m_transfer, rank_one_factor


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


def rank_one_model(H, Q):
    """M-Delta model of H + delta*Q for a rank-1 Q."""
    H = np.asarray(H, dtype=float)
    sigma, v, w = rank_one_factor(Q)
    return MDeltaModel(
        H=H, Qcal=Q, sigma=sigma, v=v, w=w, M=m_transfer(H, sigma, v, w)
    )


def random_rank_one_model(rng, n=6, shift=0.5):
    """Random stable state matrix with a random rank-1 perturbation."""
    A = rng.normal(size=(n, n))
    A = A - (np.max(np.linalg.eigvals(A).real) + shift) * np.eye(n)
    return rank_one_model(A, np.outer(rng.normal(size=n), rng.normal(size=n)))


@pytest.fixture(scope="session")
def random_models():
    rng = np.random.default_rng(20240817)
    return [random_rank_one_model(rng) for _ in range(10)]


@pytest.fixture(scope="session")
def random_summaries(random_models):
    return [
        sample_locus(m.M, wmin=1e-3, wmax=1e3, n=600) for m in random_models
    ]
