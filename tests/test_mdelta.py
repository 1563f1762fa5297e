import numpy as np
import pytest

from cgmargin.errors import DimensionError, UnstableFixedPartError, UnsupportedRankError
from cgmargin.lti import StateSpace, ss_from_zpk, zpk_of_ss
from cgmargin.mdelta import (
    build_mdelta,
    closed_loop_matrix,
    closed_loop_uncertain,
    m_transfer,
    model_of,
    rank_one_factor,
)
from cgmargin.pipeline import (
    DEFAULT_CONTROLLER_GAIN,
    DEFAULT_CONTROLLER_POLES,
    DEFAULT_CONTROLLER_ZEROS,
)


class TestClosedLoopUncertain:
    def test_block_structure(self, session):
        plant, controller = session.augmented, session.controller
        H, Qcal = closed_loop_uncertain(plant, controller)
        n_p = plant.nominal.nstates
        assert H.shape == (n_p + controller.nstates,) * 2
        assert np.allclose(H[:n_p, :n_p], plant.nominal.A)
        assert np.allclose(H[:n_p, n_p:], plant.nominal.B @ controller.C)
        assert np.allclose(H[n_p:, :n_p], -controller.B @ plant.nominal.C)
        assert np.allclose(H[n_p:, n_p:], controller.A)
        assert np.allclose(Qcal[:n_p, :n_p], plant.Q_A)
        assert np.allclose(Qcal[:n_p, n_p:], plant.Q_B @ controller.C)
        assert np.all(Qcal[n_p:, :] == 0)

    def test_nominal_loop_stable(self, session):
        assert np.all(session.model.M.poles.real < 0.0)

    def test_model_m_realized_on_h(self, session):
        import dataclasses

        model = session.model
        assert dataclasses.replace(model, H=model.H.copy()).M is model.M
        with pytest.raises(DimensionError, match="realized on H"):
            dataclasses.replace(model, H=model.H + 1e-12)

    def test_matches_transfer_function_feedback(self, session):
        """Closed-loop poles equal the roots of den_G*den_K + num_G*num_K."""
        g_zeros, g_poles, g_gain = zpk_of_ss(session.augmented.nominal)
        k_zeros, k_poles = DEFAULT_CONTROLLER_ZEROS, DEFAULT_CONTROLLER_POLES
        num = g_gain * DEFAULT_CONTROLLER_GAIN * np.poly([*g_zeros, *k_zeros]).real
        den = np.poly([*g_poles, *k_poles]).real
        char = den + np.concatenate([np.zeros(len(den) - len(num)), num])
        got = np.sort_complex(np.linalg.eigvals(session.model.H))
        want = np.sort_complex(np.roots(char))
        assert np.allclose(got, want, atol=1e-6)

    def test_biproper_plant_rejected(self, session):
        import dataclasses

        p = session.augmented.nominal
        bad_nominal = StateSpace(p.A, p.B, p.C, np.ones((1, 1)))
        bad = dataclasses.replace(session.augmented, nominal=bad_nominal)
        with pytest.raises(DimensionError):
            closed_loop_uncertain(bad, session.controller)

    @pytest.mark.parametrize("inputs, outputs", [(2, 1), (1, 2)],
                             ids=["controller_inputs", "controller_outputs"])
    def test_io_mismatch_rejected(self, session, inputs, outputs):
        # the controller closes a SISO plant: one input and one output
        controller = StateSpace(-np.eye(2), np.ones((2, inputs)), np.ones((outputs, 2)),
                                np.zeros((outputs, inputs)))
        with pytest.raises(DimensionError, match="I/O dimensions do not match"):
            closed_loop_uncertain(session.augmented, controller)


class TestRankOneFactor:
    def test_reconstruction(self, session):
        Qcal = session.model.Qcal
        sigma, v, w = rank_one_factor(Qcal)
        assert np.abs(Qcal - sigma * np.outer(v, w)).max() < 1e-10 * sigma

    def test_random_matrices(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 9):
            Q = np.outer(rng.normal(size=n), rng.normal(size=n))
            sigma, v, w = rank_one_factor(Q)
            assert np.abs(Q - sigma * np.outer(v, w)).max() < 1e-10 * sigma
            assert np.isclose(np.linalg.norm(v), 1.0)
            assert np.isclose(np.linalg.norm(w), 1.0)

    def test_deterministic_sign(self):
        Q = -np.outer([0.0, 2.0, 1.0], [3.0, -1.0, 0.5])
        sigma1, v1, w1 = rank_one_factor(Q)
        sigma2, v2, w2 = rank_one_factor(Q.copy())
        lead = v1[np.abs(v1) > 0][0]
        assert lead > 0
        assert np.array_equal(v1, v2) and np.array_equal(w1, w2)

    def test_rank_two_rejected(self):
        with pytest.raises(UnsupportedRankError, match="rank > 1"):
            rank_one_factor(np.eye(2))

    def test_zero_rejected(self):
        with pytest.raises(UnsupportedRankError, match="zero"):
            rank_one_factor(np.zeros((3, 3)))


class TestMTransfer:
    def test_realization_matrices(self, session):
        m = session.model
        assert np.allclose(m.M.A, m.H)
        assert np.allclose(m.M.B[:, 0], m.sigma * m.v)
        assert np.allclose(m.M.C[0, :], -m.w)
        assert np.all(m.M.D == 0)

    def test_negative_feedback_closure(self, session):
        """Closing M with gain delta in negative feedback must reproduce
        H + delta*Qcal."""
        m = session.model
        for delta in (-3.0, 0.4):
            closed = m.M.A - m.M.B @ (delta * m.M.C)
            assert np.allclose(closed, m.H + delta * m.Qcal, atol=1e-10)

    def test_scalar_example(self):
        # M(s) = -1/(s+2) for H=[[-2]], sigma=1, v=w=[1]; M(0) = -1/2
        M = m_transfer(np.array([[-2.0]]), 1.0, np.array([1.0]), np.array([1.0]))
        assert complex(M.evaluate(0.0)[0, 0]) == pytest.approx(-0.5)


class TestRootLocusEquivalence:
    def test_eigenvalues_match_factored_form(self, session):
        m = session.model
        for delta in np.linspace(-20.0, 1.0, 25):
            direct = np.sort_complex(
                np.linalg.eigvals(m.H + delta * m.Qcal)
            )
            factored = np.sort_complex(
                np.linalg.eigvals(m.H + delta * m.sigma * np.outer(m.v, m.w))
            )
            assert np.allclose(direct, factored, atol=1e-9)
            assert np.allclose(
                direct,
                np.sort_complex(np.linalg.eigvals(closed_loop_matrix(m, delta))),
                atol=1e-12,
            )

    def test_characteristic_polynomial_route(self, session):
        """Perturbed eigenvalues are the roots of den_M + delta*num_M."""
        m = session.model
        zeros, _, gain = zpk_of_ss(m.M)
        den = np.poly(m.H).real
        num = gain * np.poly(zeros).real
        pad = np.concatenate([np.zeros(len(den) - len(num)), num])
        for delta in (-10.0, -1.0, 0.45):
            roots = np.sort_complex(np.roots(den + delta * pad))
            eigs = np.sort_complex(np.linalg.eigvals(closed_loop_matrix(m, delta)))
            assert np.allclose(roots, eigs, atol=1e-5)


class TestModelOf:
    def test_holds_h_itself_or_shifted_by_the_margin(self, session):
        H, Qcal = session.model.H, session.model.Qcal
        assert model_of(H, Qcal).H is H
        shifted = model_of(H, Qcal, margin=0.2)
        assert np.array_equal(shifted.H, H + 0.2 * np.eye(8))
        assert shifted.M.A is shifted.H and shifted.margin == 0.2


class TestBuildMDelta:
    def test_default_model_fields(self, session):
        m = session.model
        assert m.sigma > 0
        assert m.M.nstates == m.H.shape[0] == 8

    def test_unstable_nominal_rejected(self):
        import dataclasses

        from cgmargin.aircraft import UncertainPlant

        nominal = StateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]])
        plant = UncertainPlant(
            nominal=nominal,
            Q_A=np.array([[1.0]]),
            Q_B=np.zeros((1, 1)),
        )
        controller = ss_from_zpk([], [], 0.0)
        with pytest.raises(UnstableFixedPartError):
            build_mdelta(plant, controller)
