import numpy as np
import pytest

from cgmargin.errors import DimensionError, RepresentationError
from cgmargin.lti import (
    STACK_BYTES,
    StateSpace,
    eigenvalues,
    freq_response,
    freq_values,
    imaginary_zeros,
    is_hurwitz,
    ss_realize,
    tf_from_zpk,
    tf_of_ss,
)

from conftest import dense_response, random_rank_one_model

G_ZEROS = (-0.0164, -0.635)
G_POLES_PAIR = np.roots([1, 0.0136, 0.000327])
G_POLES = (-4.31, -0.68, G_POLES_PAIR[0], G_POLES_PAIR[1])
G_GAIN = 2.64

K_ZEROS = (-5.14, -0.615, -0.0171)
K_POLES_PAIR = np.roots([1, 7.22, 13.6])
K_POLES = (-0.356, -0.0175, K_POLES_PAIR[0], K_POLES_PAIR[1])
K_GAIN = 3.14


@pytest.fixture(scope="module")
def g_tf():
    return tf_from_zpk(G_ZEROS, G_POLES, G_GAIN)


@pytest.fixture(scope="module")
def k_tf():
    return tf_from_zpk(K_ZEROS, K_POLES, K_GAIN)


class TestTfFromZpk:
    def test_aircraft_model_coefficients(self, g_tf):
        num = G_GAIN * np.poly(G_ZEROS)
        den = np.poly(G_POLES).real
        assert np.allclose(g_tf.num, num, rtol=1e-12)
        assert np.allclose(g_tf.den, den, rtol=1e-12)

    def test_constant_one(self):
        tf = tf_from_zpk([], [], 1.0)
        assert tf(3.7 + 2j) == 1.0
        assert tf.num.tolist() == [1.0] and tf.den.tolist() == [1.0]

    def test_controller(self, k_tf):
        assert len(k_tf.poles) == 4
        assert np.allclose(
            k_tf.den, np.polymul(np.polymul([1, 0.356], [1, 0.0175]), [1, 7.22, 13.6])
        )

    def test_zpk_and_coefficient_forms_agree(self, g_tf, k_tf):
        rng = np.random.default_rng(7)
        for tf in (g_tf, k_tf):
            for _ in range(20):
                s = complex(rng.normal(), rng.normal())
                a, b = tf(s), tf.eval_coeffs(s)
                assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))

    def test_non_conjugate_closed_rejected(self):
        with pytest.raises(RepresentationError):
            tf_from_zpk([], [-1, -2 + 1j], 1.0)

    def test_improper_rejected(self):
        with pytest.raises(RepresentationError):
            tf_from_zpk([-1, -2], [-3], 1.0)


class TestSsRealize:
    def test_first_order_lag(self):
        ss = ss_realize(tf_from_zpk([], [-1.0], 1.0))
        assert ss.A.tolist() == [[-1.0]]
        assert ss.B.tolist() == [[1.0]]
        assert ss.C.tolist() == [[1.0]]
        assert ss.D.tolist() == [[0.0]]

    def test_controller_realization(self, k_tf):
        ss = ss_realize(k_tf)
        assert ss.nstates == 4
        assert np.all(ss.D == 0)
        got = np.sort_complex(np.linalg.eigvals(ss.A))
        want = np.sort_complex(np.roots(k_tf.den))
        assert np.allclose(got, want, atol=1e-8)

    def test_static_gain(self):
        ss = ss_realize(tf_from_zpk([], [], 7.0))
        assert ss.nstates == 0
        assert ss.D.tolist() == [[7.0]]
        assert ss.evaluate(1j)[0, 0] == 7.0

    def test_realization_fidelity(self, g_tf, k_tf):
        for tf in (g_tf, k_tf):
            ss = ss_realize(tf)
            for w in np.logspace(-3, 2, 50):
                direct = tf(1j * w)
                real = ss.evaluate(1j * w)[0, 0]
                assert abs(real - direct) <= 1e-8 * abs(direct)


class TestFreqResponse:
    def test_first_order_lag_analytic(self):
        lag = ss_realize(tf_from_zpk([], [-1.0], 1.0))
        locus = freq_response(lag, [1.0])
        assert abs(locus.values[0] - (0.5 - 0.5j)) < 1e-12

    def test_strictly_proper_rolloff(self, g_tf):
        g = ss_realize(g_tf)
        locus = freq_response(g, [1e6])
        assert abs(locus.values[0]) < 1e-4

    def test_matches_coefficient_evaluation(self, g_tf):
        g = ss_realize(g_tf)
        locus = freq_response(g, [0.1])
        want = g_tf.eval_coeffs(0.1j)
        assert abs(locus.values[0] - want) <= 1e-8 * abs(want)

    def test_conjugate_symmetry(self, g_tf):
        g = ss_realize(g_tf)
        for w in (0.03, 0.7, 12.0):
            plus = g.evaluate(1j * w)[0, 0]
            minus = g.evaluate(-1j * w)[0, 0]
            assert abs(minus - np.conj(plus)) < 1e-12

    def test_pole_on_grid_perturbed_with_warning(self):
        osc = StateSpace([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        with pytest.warns(UserWarning, match="imaginary-axis pole"):
            locus = freq_response(osc, [0.5, 1.0, 1.5])
        assert np.all(np.isfinite(locus.values))
        assert locus.omegas[1] != 1.0

    @pytest.mark.parametrize("which", ["aircraft", "random_n32"])
    def test_grid_matches_per_point_solve(self, which, session):
        if which == "aircraft":
            M = session.model.M
        else:
            M = random_rank_one_model(np.random.default_rng(0), n=32).M
        grid = np.logspace(-4, 4, 1001)
        locus = freq_response(M, grid)
        per_point = np.array([M.evaluate(1j * w)[0, 0] for w in grid])
        scale = np.abs(per_point).max()
        assert np.array_equal(locus.omegas, grid)
        assert np.abs(locus.values - per_point).max() <= 1e-12 * scale
        assert np.abs(locus.values - dense_response(M, grid)).max() <= 1e-12 * scale
        # where the aircraft's M nears its zero at the origin (|M| = 4e-3 at
        # w = 1e-4) the balanced recurrence keeps 1e-10 of |M|, 9e-10 unbalanced
        assert np.all(np.abs(locus.values - per_point) <= 3e-10 * np.abs(per_point))

    def test_grid_spanning_several_chunks(self):
        M = random_rank_one_model(np.random.default_rng(0), n=32).M
        chunk = STACK_BYTES // (16 * M.nstates)
        grid = np.logspace(-4, 4, 3 * chunk + 17)
        values = freq_values(M, grid)
        per_point = np.array([M.evaluate(1j * w)[0, 0] for w in grid])
        assert np.abs(values - per_point).max() <= 1e-12 * np.abs(per_point).max()
        # chunk boundaries: the same frequencies in any order and grouping
        perm = np.random.default_rng(1).permutation(grid.size)
        assert np.abs(freq_values(M, grid[perm]) - values[perm]).max() <= 1e-13 * np.abs(values).max()

    def test_uncontrollable_part_is_dropped(self):
        rng = np.random.default_rng(3)
        A1 = rng.normal(size=(5, 5)) - 4.0 * np.eye(5)
        A2 = rng.normal(size=(3, 3)) - 4.0 * np.eye(3)
        b1, c1, c2 = rng.normal(size=5), rng.normal(size=5), rng.normal(size=3)
        part = StateSpace(A1, b1[:, None], c1[None, :], [[0.0]])
        grid = np.logspace(-3, 3, 301)
        want = np.array([part.evaluate(1j * w)[0, 0] for w in grid])
        zero = np.zeros((5, 3))
        trailing = StateSpace(
            np.block([[A1, zero], [zero.T, A2]]), np.r_[b1, 0, 0, 0][:, None],
            np.r_[c1, c2][None, :], [[0.0]],
        )
        leading = StateSpace(
            np.block([[A2, zero.T], [zero, A1]]), np.r_[0, 0, 0, b1][:, None],
            np.r_[c2, c1][None, :], [[0.0]],
        )
        # exact zeros below the reachable block end the Hessenberg form there
        assert trailing.controller_hessenberg[0].shape == (5, 5)
        for full in (trailing, leading):
            assert np.abs(freq_values(full, grid) - want).max() <= 1e-12 * np.abs(want).max()

    def test_feedthrough(self):
        tf = tf_from_zpk([-2.0, -3.0, -0.1 + 1j, -0.1 - 1j], [-1.0, -4.0, -0.5 + 2j, -0.5 - 2j], 2.5)
        ss = ss_realize(tf)
        assert ss.D[0, 0] == 2.5
        grid = np.logspace(-3, 3, 301)
        want = np.array([tf(1j * w) for w in grid])
        assert np.abs(freq_values(ss, grid) - want).max() <= 1e-12 * np.abs(want).max()

    def test_zero_state_system(self):
        gain = StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[2.5]])
        grid = [0.0, 1.0, 7.0]
        locus = freq_response(gain, grid)
        assert np.array_equal(locus.values, [gain.evaluate(1j * w)[0, 0] for w in grid])

    def test_pole_inside_a_stack_moves_only_that_sample(self):
        osc = StateSpace([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        grid = np.concatenate(
            [np.linspace(0.5, 0.99, 50), [1.0], np.linspace(1.01, 1.5, 50)]
        )
        assert grid.size <= STACK_BYTES // (16 * 2)
        with pytest.warns(UserWarning, match="imaginary-axis pole") as caught:
            locus = freq_response(osc, grid)
        assert len(caught) == 1
        assert np.array_equal(locus.omegas != grid, grid == 1.0)
        per_point = np.array([osc.evaluate(1j * w)[0, 0] for w in locus.omegas])
        err = np.abs(locus.values - per_point) / np.abs(per_point)
        # the moved sample sits 2e-8 from the pole, where a rounding of w moves
        # M by 5e7 times as much: both routes are only good to about 1e-9 there
        assert np.all(err[grid != 1.0] <= 1e-12) and err[grid == 1.0] <= 1e-7


class TestEigen:
    def test_diagonal(self):
        lam = eigenvalues(np.diag([-1.0, -2.0]))
        assert np.allclose(lam, [-2.0, -1.0])
        assert is_hurwitz(np.diag([-1.0, -2.0]))

    def test_margin(self):
        assert not is_hurwitz(np.diag([-0.05]), margin=0.1)
        assert is_hurwitz(np.diag([-0.2]), margin=0.1)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            eigenvalues(np.zeros((2, 3)))


class TestImaginaryZeros:
    @staticmethod
    def zeros_of(zeros, poles):
        ss = ss_realize(tf_from_zpk(zeros, poles, 2.0))
        return imaginary_zeros(ss.A, ss.B, ss.C)

    def test_pair_and_origin(self):
        w = self.zeros_of([0.0, 1j, -1j, -3.0], [-1.0, -2.0, -0.5 + 1j, -0.5 - 1j, -4.0])
        assert w == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_off_axis_zeros_dropped(self):
        assert self.zeros_of([-1e-3 + 1j, -1e-3 - 1j, 2.0], [-1.0, -2.0, -3.0]).size == 0

    def test_relative_degree_three_has_no_origin_zero(self):
        # cb = cAb = 0: deflation by the first nonzero Markov parameter
        # leaves the one true zero and nothing at s = 0
        w = self.zeros_of([5j, -5j], [-1.0, -2.0, -3.0, -4.0, -5.0])
        assert w == pytest.approx([5.0], rel=1e-12)

    def test_identically_zero(self):
        A = np.diag([-1.0, -2.0])
        assert imaginary_zeros(A, [1.0, 0.0], [0.0, 1.0]).size == 0
        assert imaginary_zeros(np.zeros((0, 0)), [], []).size == 0

    @pytest.mark.parametrize("gain", [2.0, 1e-9])
    def test_feedthrough(self, gain):
        # biproper, so d = gain; the zeros at +-2j, 1 and -3 come back from
        # the eigenvalues of A - b c / d, the pair on the axis only
        ss = ss_realize(tf_from_zpk([2j, -2j, 1.0, -3.0], [-1.0, -2.0, -0.5 + 1j, -0.5 - 1j], gain))
        assert ss.D[0, 0] == pytest.approx(gain)
        w = imaginary_zeros(ss.A, ss.B, ss.C, ss.D[0, 0])
        assert w == pytest.approx([2.0], rel=1e-12)

    def test_constant(self):
        A = np.diag([-1.0, -2.0])
        assert imaginary_zeros(A, [0.0, 0.0], [1.0, 1.0], 3.0).size == 0


class TestTfOfSs:
    def test_round_trip(self, g_tf):
        back = tf_of_ss(ss_realize(g_tf))
        assert np.isclose(back.gain, g_tf.gain, rtol=1e-8)
        assert np.allclose(
            np.sort_complex(np.array(back.zeros)),
            np.sort_complex(np.array(g_tf.zeros)),
            atol=1e-8,
        )
