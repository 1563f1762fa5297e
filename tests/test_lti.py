import numpy as np
import pytest

from cgmargin.errors import DimensionError, RepresentationError
from cgmargin.lti import (
    STACK_BYTES,
    FrequencyLocus,
    StateSpace,
    freq_response,
    freq_values,
    imaginary_zeros,
    ss_from_zpk,
    zpk_of_ss,
)
from cgmargin.pipeline import AnalysisConfig, format_model_dump, run_analysis

from conftest import dense_response, eval_zpk, random_rank_one_model, split_pair_model

G_ZEROS = (-0.0164, -0.635)
G_POLES_PAIR = np.roots([1, 0.0136, 0.000327])
G_POLES = (-4.31, -0.68, G_POLES_PAIR[0], G_POLES_PAIR[1])
G_GAIN = 2.64

K_ZEROS = (-5.14, -0.615, -0.0171)
K_POLES_PAIR = np.roots([1, 7.22, 13.6])
K_POLES = (-0.356, -0.0175, K_POLES_PAIR[0], K_POLES_PAIR[1])
K_GAIN = 3.14

# biproper test system: zeros at +-2j, 1 and -3
FT_ZEROS = (2j, -2j, 1.0, -3.0)
FT_POLES = (-1.0, -2.0, -0.5 + 1j, -0.5 - 1j)


G_ZPK = (G_ZEROS, G_POLES, G_GAIN)
K_ZPK = (K_ZEROS, K_POLES, K_GAIN)


@pytest.fixture(scope="module")
def g_ss():
    return ss_from_zpk(*G_ZPK)


@pytest.fixture(scope="module")
def k_ss():
    return ss_from_zpk(*K_ZPK)


class TestTfFromZpk:
    """zpk input to ss_from_zpk: checks, and the polynomial coefficients that
    the companion realization carries (A's first row is minus the monic
    denominator's, C the numerator's for strictly proper input)."""

    def test_aircraft_model_coefficients(self, g_ss):
        num = G_GAIN * np.poly(G_ZEROS)
        den = np.poly(G_POLES).real
        assert np.allclose(-g_ss.A[0], den[1:], rtol=1e-12)
        assert np.allclose(g_ss.C[0], np.concatenate([[0.0], num]), rtol=1e-12)

    def test_constant_one(self):
        ss = ss_from_zpk([], [], 1.0)
        assert ss.nstates == 0 and ss.D.tolist() == [[1.0]]
        assert ss.evaluate(3.7 + 2j)[0, 0] == 1.0

    def test_controller(self, k_ss):
        assert k_ss.nstates == 4
        assert np.allclose(
            -k_ss.A[0], np.polymul(np.polymul([1, 0.356], [1, 0.0175]), [1, 7.22, 13.6])[1:]
        )

    def test_zpk_and_coefficient_forms_agree(self, g_ss, k_ss):
        rng = np.random.default_rng(7)
        for ss, zpk in ((g_ss, G_ZPK), (k_ss, K_ZPK)):
            for _ in range(20):
                s = complex(rng.normal(), rng.normal())
                a, b = eval_zpk(*zpk, s), ss.evaluate(s)[0, 0]
                assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))

    def test_non_conjugate_closed_rejected(self):
        with pytest.raises(RepresentationError, match="no conjugate partner"):
            ss_from_zpk([], [-1, -2 + 1j], 1.0)

    def test_improper_rejected(self):
        with pytest.raises(RepresentationError, match="2 zeros exceed 1 poles"):
            ss_from_zpk([-1, -2], [-3], 1.0)

    @pytest.mark.parametrize("zpk, message", [
        (([], [np.inf], 1.0), "zeros and poles must be finite"),
        (([np.nan], [-1.0], 1.0), "zeros and poles must be finite"),
        (([], [-1.0], np.nan), "gain must be finite"),
    ], ids=["pole", "zero", "gain"])
    def test_nonfinite_rejected(self, zpk, message):
        with pytest.raises(RepresentationError, match=message):
            ss_from_zpk(*zpk)


class TestSsRealize:
    def test_first_order_lag(self):
        ss = ss_from_zpk([], [-1.0], 1.0)
        assert ss.A.tolist() == [[-1.0]]
        assert ss.B.tolist() == [[1.0]]
        assert ss.C.tolist() == [[1.0]]
        assert ss.D.tolist() == [[0.0]]

    def test_controller_realization(self, k_ss):
        assert k_ss.nstates == 4
        assert np.all(k_ss.D == 0)
        got = np.sort_complex(np.linalg.eigvals(k_ss.A))
        want = np.sort_complex(np.array(K_POLES))
        assert np.allclose(got, want, atol=1e-8)

    def test_static_gain(self):
        ss = ss_from_zpk([], [], 7.0)
        assert ss.nstates == 0
        assert ss.D.tolist() == [[7.0]]
        assert ss.evaluate(1j)[0, 0] == 7.0

    def test_realization_fidelity(self, g_ss, k_ss):
        for ss, zpk in ((g_ss, G_ZPK), (k_ss, K_ZPK)):
            for w in np.logspace(-3, 2, 50):
                direct = eval_zpk(*zpk, 1j * w)
                real = ss.evaluate(1j * w)[0, 0]
                assert abs(real - direct) <= 1e-8 * abs(direct)


class TestFreqResponse:
    def test_first_order_lag_analytic(self):
        lag = ss_from_zpk([], [-1.0], 1.0)
        locus = freq_response(lag, [1.0])
        assert abs(locus.values[0] - (0.5 - 0.5j)) < 1e-12

    def test_strictly_proper_rolloff(self, g_ss):
        locus = freq_response(g_ss, [1e6])
        assert abs(locus.values[0]) < 1e-4

    def test_matches_coefficient_evaluation(self, g_ss):
        locus = freq_response(g_ss, [0.1])
        num, den = G_GAIN * np.poly(G_ZEROS), np.poly(G_POLES).real
        want = np.polyval(num, 0.1j) / np.polyval(den, 0.1j)
        assert abs(locus.values[0] - want) <= 1e-8 * abs(want)

    def test_conjugate_symmetry(self, g_ss):
        for w in (0.03, 0.7, 12.0):
            plus = g_ss.evaluate(1j * w)[0, 0]
            minus = g_ss.evaluate(-1j * w)[0, 0]
            assert abs(minus - np.conj(plus)) < 1e-12

    @pytest.mark.parametrize("grid", [
        [0.5, 1.0, 1.5],
        # one chunk of the recurrence, the pole neither first nor last
        np.concatenate([np.linspace(0.5, 0.99, 50), [1.0], np.linspace(1.01, 1.5, 50)]),
    ], ids=["3-point", "101-point"])
    def test_pole_on_grid_raises(self, grid):
        osc = StateSpace([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        assert len(grid) <= STACK_BYTES // (16 * 2)
        with pytest.raises(np.linalg.LinAlgError, match=r"imaginary-axis pole at w = 1\.0 "):
            freq_response(osc, grid)

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
        zpk = ([-2.0, -3.0, -0.1 + 1j, -0.1 - 1j], [-1.0, -4.0, -0.5 + 2j, -0.5 - 2j], 2.5)
        ss = ss_from_zpk(*zpk)
        assert ss.D[0, 0] == 2.5
        grid = np.logspace(-3, 3, 301)
        want = np.array([eval_zpk(*zpk, 1j * w) for w in grid])
        assert np.abs(freq_values(ss, grid) - want).max() <= 1e-12 * np.abs(want).max()

    def test_zero_state_system(self):
        gain = StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[2.5]])
        grid = [0.0, 1.0, 7.0]
        locus = freq_response(gain, grid)
        assert np.array_equal(locus.values, [gain.evaluate(1j * w)[0, 0] for w in grid])


class TestEigen:
    """StateSpace.poles: the spectrum of A, sorted by (real, imag), solved once."""

    def test_diagonal(self):
        sys = StateSpace(np.diag([-1.0, -2.0]), [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]])
        assert sys.poles.tolist() == [-2.0, -1.0]
        assert sys.poles is sys.poles

    def test_read_only(self):
        sys = StateSpace(np.diag([-1.0, -2.0]), [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]])
        with pytest.raises(ValueError):
            sys.poles.sort()
        with pytest.raises(ValueError):
            zpk_of_ss(sys)[1][0] = 1.0
        assert sys.poles.tolist() == [-2.0, -1.0]

    def test_sorted_by_real_then_imag(self):
        sys = ss_from_zpk([], [-1.0 + 2j, -1.0 - 2j, -3.0, 0.5], 1.0)
        assert np.allclose(sys.poles, [-3.0, -1.0 - 2j, -1.0 + 2j, 0.5], atol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            StateSpace(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 3)), [[0.0]])


class TestImaginaryZeros:
    @staticmethod
    def zeros_of(zeros, poles):
        ss = ss_from_zpk(zeros, poles, 2.0)
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
        ss = ss_from_zpk(FT_ZEROS, FT_POLES, gain)
        assert ss.D[0, 0] == pytest.approx(gain)
        w = imaginary_zeros(ss.A, ss.B, ss.C, ss.D[0, 0])
        assert w == pytest.approx([2.0], rel=1e-12)

    def test_constant(self):
        A = np.diag([-1.0, -2.0])
        assert imaginary_zeros(A, [0.0, 0.0], [1.0, 1.0], 3.0).size == 0

    def test_split_pair_kept(self):
        # the level function of a Popov line (q, c) on the left side:
        # Re[(1 + jqw) M(jw)] = c at the zeros of 2 c - F(s) - F(-s), with F =
        # (1 + qs) M.  At this line, read off 40 samples of split_pair_model,
        # its zeros w = 0.11574 and 0.11580 bound a narrow excursion of the
        # locus past the line, and come out of the solve 1.13e-8 |z| off the
        # jw-axis.  Dropped, the excursion went uncertified
        M = split_pair_model().M
        q, c = -0.8419535369338056, -3.410528648353974
        H, b, c_m = M.A, M.B[:, 0], M.C[0]
        c_f = c_m + q * (c_m @ H)
        A = np.block([[H, np.zeros_like(H)], [np.zeros_like(H), -H]])
        w = imaginary_zeros(A, np.r_[b, b], np.r_[c_f, -c_f], 2.0 * (q * (c_m @ b) - c))
        assert w[w < 1.0] == pytest.approx([0.115739, 0.115805], rel=1e-5)

    def test_partner_pair_is_no_crossing(self, session, result):
        # the level function of the small-gain circle: |M(jw)| = r at the
        # zeros of r^2 - M(-s) M(s).  At the certified r_sg, CERT_RTOL above
        # the peak, its two zeros near w = 0.91426 lie on either side of the
        # jw-axis at one w: a near miss, no crossing.  Just below the peak
        # the level is crossed twice, about that w
        M = session.model.M
        H, b, c = M.A, M.B[:, 0], M.C[0]
        k = np.linalg.norm(H) / (np.linalg.norm(b) * np.linalg.norm(c))
        A = np.block([[H, np.zeros_like(H)], [k * np.outer(b, c), -H]])
        B, C = np.r_[b, np.zeros_like(b)], np.r_[np.zeros_like(c), c / k]
        r_sg = result.intervals["small_gain"].witnesses["r_sg"]
        assert imaginary_zeros(A, B, C, r_sg * r_sg).size == 0
        r = r_sg * (1.0 - 1e-6)
        w = imaginary_zeros(A, B, C, r * r)
        assert w.size == 2 and w[0] < 0.9142573 < w[1]
        assert w == pytest.approx([0.9142573, 0.9142573], rel=2e-3)


class TestTfOfSs:
    """zpk_of_ss: the (zeros, poles, gain) of a realization."""

    def test_round_trip(self, g_ss):
        zeros, poles, gain = zpk_of_ss(g_ss)
        assert np.isclose(gain, G_GAIN, rtol=1e-8)
        assert np.allclose(np.sort_complex(zeros), np.sort_complex(G_ZEROS), atol=1e-8)
        assert poles is g_ss.poles

    def test_exact_on_bundled_m(self, session):
        # zpk read off the realization, against one LU solve per point
        M = session.model.M
        zpk = zpk_of_ss(M)
        s = 1j * np.logspace(-4, 4, 81)
        per_point = np.array([M.evaluate(sk)[0, 0] for sk in s])
        err = np.abs(np.array([eval_zpk(*zpk, sk) for sk in s]) - per_point)
        assert err.max() <= 1e-10 * np.abs(per_point).max()

    def test_augmented_nominal_gain_is_first_markov_parameter(self, session):
        sys = session.augmented.nominal
        zeros, poles, gain = zpk_of_ss(sys)
        assert len(zeros) == 2 and len(poles) == 4
        cab = (sys.C @ sys.A @ sys.B)[0, 0]
        assert abs(gain - cab) <= 1e-14 * abs(cab)

    @pytest.mark.parametrize("gain", [2.0, 1e-9])
    def test_biproper(self, gain):
        zeros, _, back = zpk_of_ss(ss_from_zpk(FT_ZEROS, FT_POLES, gain))
        assert back == pytest.approx(gain, rel=1e-12)
        assert np.allclose(np.sort_complex(zeros), np.sort_complex(FT_ZEROS), atol=1e-8)

    def test_constant(self):
        zeros, poles, gain = zpk_of_ss(
            StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[3.0]])
        )
        assert gain == 3.0 and zeros.size == 0 and poles.size == 0

    def test_identically_zero(self):
        zpk = zpk_of_ss(StateSpace(np.diag([-1.0, -2.0]), [[1.0], [0.0]], [[0.0, 1.0]], [[0.0]]))
        assert zpk[2] == 0.0 and zpk[0].size == 0
        assert eval_zpk(*zpk, 1j) == 0.0

    def test_mimo_rejected(self):
        with pytest.raises(DimensionError):
            zpk_of_ss(StateSpace(-np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2))))


LAG = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])


@pytest.mark.parametrize("build, message", [
    (lambda: StateSpace(-np.eye(2), np.zeros((3, 1)), np.zeros((1, 2)), [[0.0]]),
     "B has 3 rows, expected 2"),
    (lambda: StateSpace(-np.eye(2), np.zeros((2, 1)), np.zeros((1, 3)), [[0.0]]),
     "C has 3 cols, expected 2"),
    (lambda: StateSpace(-np.eye(2), np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((2, 2))),
     r"D must be 1x1, got \(2, 2\)"),
    (lambda: FrequencyLocus([0.0, 1.0], [1.0], LAG), "matching 1-D arrays"),
    (lambda: FrequencyLocus([[0.0, 1.0]], [[1.0, 1.0]], LAG), "matching 1-D arrays"),
    (lambda: FrequencyLocus([-1.0, 1.0], [1.0, 1.0], LAG), "nonnegative"),
    (lambda: FrequencyLocus([1.0, 1.0], [1.0, 1.0], LAG), "strictly increasing"),
    (lambda: FrequencyLocus([0.0, 1.0], [1.0, np.nan], LAG), "non-finite"),
    (lambda: freq_response(StateSpace(-np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2))), [1.0]),
     "requires a SISO system"),
    (lambda: freq_response(LAG, []), "nonempty 1-D"),
    (lambda: freq_response(LAG, [[1.0, 2.0]]), "nonempty 1-D"),
    (lambda: imaginary_zeros(-np.eye(2), [1.0, 1.0, 1.0], [1.0, 1.0]), "SISO realization"),
], ids=["B_rows", "C_cols", "D_shape", "locus_mismatched", "locus_2d", "locus_negative",
        "locus_not_increasing", "locus_nonfinite", "response_mimo", "response_empty",
        "response_2d", "zeros_not_siso"])
def test_outside_input_rejected(build, message):
    with pytest.raises(DimensionError, match=message):
        build()


def test_analysis_makes_no_scalar_response_call(monkeypatch):
    def forbidden(self, s):
        raise AssertionError("StateSpace.evaluate called")

    monkeypatch.setattr(StateSpace, "evaluate", forbidden)
    result = run_analysis(AnalysisConfig())
    assert "eta_to_theta zpk:" in format_model_dump(result.session)
