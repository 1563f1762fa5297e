import contextlib
import dataclasses
import math
import threading
import warnings
import weakref

import numpy as np
import pytest

from cgmargin import criteria, lti
from cgmargin.criteria import (
    GIL_FREE_SIZE,
    StabilityInterval,
    _minimax_line,
    _modulus_level,
    _popov_level,
    circle_bounds,
    exact_bounds,
    popov_bounds,
    positive_real_bounds,
    sample_locus,
    small_gain_bounds,
    verify_interval,
)
from cgmargin.errors import DimensionError, UnstableFixedPartError
from cgmargin.lti import (
    STACK_BYTES,
    StateSpace,
    freq_values,
    imaginary_zeros,
    ss_from_zpk,
)
from cgmargin.mdelta import closed_loop_matrix, closed_loop_uncertain, model_of
from cgmargin.pipeline import (
    CRITERION_TABLE,
    AnalysisConfig,
    analyze_model,
    build_session,
    run_analysis,
)

from conftest import (
    dense_response,
    golden_min,
    guardian_exact_bounds,
    random_rank_one_model,
    max_real_part,
    scan_exact_bounds,
    split_pair_model,
)

DENSE_OMEGAS = np.logspace(-4, 4, 1_000_000)

# w = 0, 200,001 log-spaced w over [1e-6, 1e6], where the poles of the
# aircraft and of the n = 32 random models lie, and one w per decade beyond,
# up to 1e300
SWEEP_OMEGAS = np.concatenate([[0.0], np.logspace(-6, 6, 200_001), np.logspace(7, 300, 294)])

# windows no sample of which need land near the locus: [1e-300, 1e300],
# below its bulk (wmax = 0.01), above it (wmin = 1), sparse (8 points), and
# the default
WINDOWS = [{"wmin": 1e-300, "wmax": 1e300, "n": 10}, {"wmin": 1e-300, "wmax": 1e300, "n": 40},
           {"wmax": 0.01}, {"n": 8}, {"wmin": 1.0}, {}]

# SWEEP_OMEGAS thinned to 20,001 points over [1e-6, 1e6], for the slower
# per-point oracle
THIN_OMEGAS = np.concatenate([[0.0], np.logspace(-6, 6, 20_001), np.logspace(7, 300, 294)])

# 1/(s^3 + 2s^2 + s + 1): relative degree 3, M(0) = 1 and M(j1) = -1 exactly
REL3 = StateSpace(
    [[-2.0, -1.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    [[1.0], [0.0], [0.0]],
    [[0.0, 0.0, 1.0]],
    [[0.0]],
)


def real_value_frequencies(M):
    """The jw-axis zeros of M(s) - M(-s), where M(jw) is real."""
    A, b, c = M.A, M.B[:, 0], M.C[0]
    zero = np.zeros_like(A)
    return imaginary_zeros(np.block([[A, zero], [zero, -A]]), np.r_[b, b], np.r_[c, c])


def _hard_case(name):
    """The M-Delta model of one hard case.  The aircraft case is built at a
    stability margin, so its H is H + AIRCRAFT_MARGIN*I."""
    if name == "relative_degree_3":
        return model_of(REL3.A, -REL3.B @ REL3.C)
    rng = np.random.default_rng(11)
    if name == "cb_zero":
        H = rng.normal(size=(8, 8))
        H -= (np.linalg.eigvals(H).real.max() + 0.5) * np.eye(8)
        b, c = rng.normal(size=8), rng.normal(size=8)
        c -= (c @ b) / (b @ b) * b
        return model_of(H, -np.outer(b, c))
    if name == "light_damping":
        H = np.zeros((4, 4))
        H[:2, :2] = [[-1e-3, 1.0], [-1.0, -1e-3]]
        H[2:, 2:] = [[-0.5, 2.0], [-2.0, -0.5]]
        return model_of(H, -np.outer([1.0, 0.3, -0.7, 0.4], [0.5, 1.0, 0.8, -0.2]))
    if name == "jordan_block":
        H = -np.eye(4) + np.diag(np.ones(3), 1)
        return model_of(H, -np.outer([0.2, -0.5, 1.0, 0.7], [1.0, 0.4, -0.3, 0.9]))
    if name == "random_n128":
        return random_rank_one_model(np.random.default_rng(0), n=128)
    if name == "flat_at_origin":
        # M = (3s + 1)/(s + 1)^3 has M'(0) = 0, so M(s) - M(-s) has a triple
        # zero at s = 0 that the eigenvalue solve leaves off the axis; the
        # lower bound -1/M(0) must still be found
        M = ss_from_zpk([-1.0 / 3.0], [-1.0, -1.0, -1.0], 3.0)
        return model_of(M.A, -M.B @ M.C)
    if name == "jw_axis_zero":
        # M = (s^2 + 1)/(s + 1)^3 is 0 at w = 1, where w Im M changes sign;
        # its other crossings are M(0) = 1 and M(j sqrt 3) = 0.25
        M = ss_from_zpk([1j, -1j], [-1.0, -1.0, -1.0], 1.0)
        return model_of(M.A, -M.B @ M.C)
    if name == "split_pair":
        return split_pair_model()
    if name == "near_cancellation":
        # a pair at w = 3 with damping 1e-3 whose input residue is 1e-6, so a
        # zero of M lies next to each of its poles, beside a stable random 6 x
        # 6 block; a random similarity couples the two
        zeta, w0 = 1e-3, 3.0
        H = np.zeros((8, 8))
        H[:2, :2] = [[-zeta * w0, w0 * math.sqrt(1 - zeta**2)],
                     [-w0 * math.sqrt(1 - zeta**2), -zeta * w0]]
        block = rng.normal(size=(6, 6))
        H[2:, 2:] = block - (np.linalg.eigvals(block).real.max() + 0.5) * np.eye(6)
        b = np.concatenate([[1e-6, 1e-6], rng.normal(size=6)])
        c = rng.normal(size=8)
        T = rng.normal(size=(8, 8))
        return model_of(T @ H @ np.linalg.inv(T), -np.outer(T @ b, np.linalg.solve(T.T, c)))
    return build_session(AnalysisConfig(stability_margin=AIRCRAFT_MARGIN)).model


def _touch_model(seed, at_origin, tilt=0.0):
    """A 6-state model whose M(jw) touches the real axis at w = 1 with M(j) =
    -5, so that the exact upper bound is 0.2 wherever the touch binds.  c is
    the least-norm solution of Re M(j) = -5, Im M(j) = ``tilt``, d/dw Im
    M(jw) = 0 at w = 1 and, if ``at_origin``, M(0) = 1; M(s) = c (sI -
    A)^-1 b.  A small tilt of the right sign turns the touch into a small
    excursion past the real axis, between two crossings near w = 1."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(6, 6))
    A -= (np.linalg.eigvals(A).real.max() + 0.5) * np.eye(6)
    b = rng.normal(size=6)
    g = np.linalg.solve(1j * np.eye(6) - A, b)
    dg = -1j * np.linalg.solve(1j * np.eye(6) - A, g)
    rows, rhs = [g.real, g.imag, dg.imag], [-5.0, tilt, 0.0]
    if at_origin:
        rows, rhs = rows + [-np.linalg.solve(A, b)], rhs + [1.0]
    c = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)[0]
    return model_of(A, -np.outer(b, c))


AIRCRAFT_MARGIN = 0.005
# perfbench's containment tolerances: a graphical bound may sit on the exact one
CONTAIN_REL, CONTAIN_ABS = 1e-5, 1e-6
HARD_CASES = ("relative_degree_3", "cb_zero", "light_damping", "jordan_block",
              "random_n128", "flat_at_origin", "near_cancellation", "aircraft_margin",
              "split_pair")
# the sample counts at which test_hard_case_enclosed reads a case's
# witnesses, the default grid unless listed.  At 40, 100 and 400 samples
# split_pair's left Popov line once let the locus pass up to 2.4e-7 beyond
# it near w = 0.11577: the crossing pair around that excursion came out of
# the solve just off the jw-axis and was dropped
HARD_CASE_NPOINTS = {"split_pair": (40, 100, 400, 4000)}
# the cases whose defective H puts the modal oracle off by up to 1e30: each
# is swept with a per-point LU solve
PER_POINT_CASES = ("jordan_block", "flat_at_origin", "jw_axis_zero")
# the hard cases that test_every_window_sound sweeps over every window
CENSUS_CASES = tuple(c for c in HARD_CASES if c != "random_n128") + ("jw_axis_zero",)


@pytest.fixture(scope="module")
def dense(session):
    return dense_response(session.model.M, DENSE_OMEGAS)


class TestGoldenSection:
    def test_quadratic_min(self):
        x, fx = golden_min(lambda t: (t - 2.0) ** 2 + 1.0, 0.0, 5.0)
        assert x == pytest.approx(2.0, abs=1e-7)
        assert fx == pytest.approx(1.0, abs=1e-12)

    def test_endpoint_optimum(self):
        x, _ = golden_min(lambda t: t, 1.0, 2.0)
        assert x == pytest.approx(1.0, abs=1e-6)


class TestMinimaxLine:
    @staticmethod
    def brute_force(a, b, quad):
        """min over the real line of quad*x^2 + max_k (a_k - x b_k), from
        every candidate: each pairwise intersection and, with x^2, each
        line's vertex."""
        i, j = np.triu_indices(a.size, 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = (a[i] - a[j]) / (b[i] - b[j])
        x = np.concatenate([cross, 0.5 * b if quad else []])
        x = x[np.isfinite(x)]
        phi = quad * x**2 + (a[None, :] - x[:, None] * b[None, :]).max(axis=1)
        return x[np.argmin(phi)], phi.min()

    @pytest.mark.parametrize("quad", [False, True])
    def test_matches_brute_force(self, quad):
        # b of both signs: phi has a minimum with or without x^2
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b = rng.normal(size=30), 3.0 * rng.normal(size=30)
            assert b.min() < 0 < b.max()
            x, _ = _minimax_line(a, b, quad=quad)
            x_bf, phi_bf = self.brute_force(a, b, quad)
            assert type(x) is float
            assert quad * x**2 + (a - x * b).max() == pytest.approx(phi_bf, abs=1e-12)
            assert x == pytest.approx(x_bf, abs=1e-9)

    @pytest.mark.parametrize("quad", [False, True])
    def test_warm_start(self, quad):
        # from any pair (L, R) with b_L > 0 > b_R, and from the pair of the
        # previous result once lines are appended, the search ends at the
        # same minimizer as from the lines active at -+inf
        rng = np.random.default_rng(11)
        for _ in range(100):
            a, b = rng.normal(size=40), 3.0 * rng.normal(size=40)
            x_bf, phi_bf = self.brute_force(a, b, quad)
            for L in np.flatnonzero(b > 0)[:4]:
                for R in np.flatnonzero(b < 0)[:4]:
                    x, _ = _minimax_line(a, b, quad=quad, pair=(int(L), int(R)))
                    assert quad * x**2 + (a - x * b).max() == pytest.approx(phi_bf, abs=1e-12)
                    assert x == pytest.approx(x_bf, abs=1e-9)
            head = 20 if (b[:20] > 0).any() and (b[:20] < 0).any() else 40
            x, pair = _minimax_line(a[:head], b[:head], quad=quad)
            assert b[pair[0]] >= b[pair[1]] if quad else b[pair[0]] > 0 > b[pair[1]]
            x, _ = _minimax_line(a, b, quad=quad, pair=pair)
            assert quad * x**2 + (a - x * b).max() == pytest.approx(phi_bf, abs=1e-12)
            assert x == pytest.approx(x_bf, abs=1e-9)


class TestSampleLocus:
    def test_grid_properties(self, session):
        s = session.summary
        assert s.omegas[0] == 0.0
        assert np.all(np.diff(s.omegas) > 0)

    def test_crossings_on_real_axis(self, session):
        # M(jw) is real at each zero of M(s) - M(-s), and every sign change
        # of Im M between samples brackets one of them
        s = session.summary
        w = real_value_frequencies(session.model.M)
        assert w[0] == 0.0 and w.size == 3
        for mv in freq_values(s.system, w):
            assert abs(mv.imag) <= 1e-10 * abs(mv)
        im = s.values.imag
        for i in np.nonzero(np.sign(im[:-1]) * np.sign(im[1:]) < 0)[0]:
            assert np.any((s.omegas[i] < w) & (w < s.omegas[i + 1]))

    def test_static_value_real(self, session):
        assert session.summary.values[0].imag == 0.0

    def test_crossing_on_a_sample_is_recorded(self):
        # the crossing of REL3 at w = 1 is a grid sample; the sample and the
        # zero of M(s) - M(-s) agree
        s = sample_locus(REL3, wmin=0.1, wmax=10.0, n=3)
        assert s.values[s.omegas == 1.0].tolist() == [-1.0]
        assert real_value_frequencies(REL3) == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_bad_window_rejected(self, session):
        with pytest.raises(DimensionError):
            sample_locus(session.model.M, wmin=1.0, wmax=0.5)
        with pytest.raises(DimensionError):
            sample_locus(session.model.M, wmin=-1.0, wmax=1.0)

    @pytest.mark.parametrize("window", [{"wmin": math.nan}, {"wmax": math.inf}, {"wmax": 1e307}],
                             ids=["wmin_nan", "wmax_inf", "wmax_overflows"])
    def test_nonfinite_window_refused(self, session, window):
        # nan and inf passed the window check, and a grid on which the
        # response overflows warned before its non-finite samples were
        # refused: one DimensionError now, and no RuntimeWarning
        with pytest.raises(DimensionError):
            sample_locus(session.model.M, **window)

    def test_non_siso_rejected(self):
        mimo = StateSpace(
            [[-1.0]], [[1.0, 0.0]], [[1.0]], [[0.0, 0.0]]
        )
        with pytest.raises(DimensionError):
            sample_locus(mimo)

    def test_unstable_rejected(self):
        bad = StateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(UnstableFixedPartError):
            sample_locus(bad)


def _window_sweep(M, oracle):
    """(w, M(jw)) at w = 0 and log-spaced w in the default window [1e-4, 1e4].

    The modal oracle sweeps DENSE_OMEGAS; the slower per-point LU solve
    2 * 10^4 points.
    """
    if oracle == "modal":
        w = np.concatenate([[0.0], DENSE_OMEGAS])
        return w, np.concatenate([dense_response(M, c) for c in np.array_split(w, 100)])
    w = np.concatenate([[0.0], np.logspace(-4, 4, 20_001)])
    return w, _per_point(M, w)


def _per_point(M, w):
    """M(jw) at each w by its own LU solve."""
    return np.array([M.evaluate(1j * wk)[0, 0] for wk in w])


def _graphical_witnesses(locus):
    """The witnesses of the four graphical criteria on ``locus``, in one dict."""
    return {k: v for bounds in (small_gain_bounds, circle_bounds, positive_real_bounds, popov_bounds)
            for k, v in bounds(locus).witnesses.items()}


def _assert_popov_line(q, c, side, w, m, slack):
    """The Popov line (q, c) on ``side`` encloses the points (w, M(jw)):
    side * Re[(1 + jqw) M] <= side * c + slack.  A slope of +-inf is the
    real axis, the limit of finite slopes only where sign(q) * side * w Im M
    >= -slack at every point (a point of the other sign rises without
    bound as |q| grows), and each point whose side * Re M lies beyond side
    * c + slack must have it > 0, so that those slopes leave it inside.  As
    in popov_bounds, a point at w > 0 whose |Im M| is at most the rounding
    unit of |M| has no sign (far above the locus Im M underflows to 0);
    w = 0 stays checked."""
    if math.isinf(q):
        turn = math.copysign(1.0, q) * side * w * m.imag
        signed = (w == 0) | (np.abs(m.imag) > np.finfo(float).eps * np.abs(m))
        assert turn.min() >= -slack
        assert np.all(turn[(side * m.real > side * c + slack) & signed] > 0)
    else:
        assert (side * (m.real - q * w * m.imag)).max() <= side * c + slack


def _assert_encloses(witnesses, w, m):
    """Each graphical witness encloses the points (w, M(jw)): the circles
    and the vertical lines to 1e-9 max|M|, each Popov line to 1e-9 of its
    largest |Re[(1 + jqw) M(jw)]| (|Re M| for the real axis)."""
    slack = 1e-9 * np.abs(m).max()
    assert np.abs(m).max() <= witnesses["r_sg"] + slack
    assert np.abs(m - witnesses["x_c"]).max() <= witnesses["r_c"] + slack
    assert witnesses["x_min"] - slack <= m.real.min()
    assert m.real.max() <= witnesses["x_max"] + slack
    for side, name in ((1, "plus"), (-1, "minus")):
        q = witnesses[f"q_{name}"]
        f = m.real - q * w * m.imag if math.isfinite(q) else m.real
        _assert_popov_line(q, witnesses[f"c_{name}"], side, w, m, 1e-9 * np.abs(f).max())


def _finite_popov_gaps(summary):
    """The number of finite-slope Popov sides, each checked to close within
    its certificate's tolerance: the last round's slope is the exact argmin
    of the max over the points, where the level is that max's minimum, and
    points are only appended, so gap <= CERT_RTOL * |level|, which is
    CERT_RTOL * |c| to a share CERT_RTOL."""
    w = popov_bounds(summary).witnesses
    finite = [name for name in ("plus", "minus") if math.isfinite(w[f"q_{name}"])]
    for name in finite:
        assert w[f"gap_{name}"] <= criteria.CERT_RTOL * abs(w[f"c_{name}"]) * (1 + 1e-6), name
    return len(finite)


def _recorded_grids(monkeypatch):
    """The list that (omegas passed in, every w evaluated) of each later
    _certified_max call joins."""
    grids = []
    certified_max = criteria._certified_max

    def recorded(summary, family, choose):
        out = certified_max(summary, family, choose)
        grids.append((summary.omegas, out[2]))
        return out

    monkeypatch.setattr(criteria, "_certified_max", recorded)
    return grids


def _recorded_solves(monkeypatch):
    """The list that the arguments of every later crossing solve join."""
    calls = []

    def counted(*args):
        calls.append(args)
        return imaginary_zeros(*args)

    monkeypatch.setattr(criteria, "imaginary_zeros", counted)
    return calls


class TestInterior:
    def test_points_strictly_inside(self):
        # 1e20 and 1e21 lie 16 and 17 decades above w0 = 1, where
        # arctan(w/w0) rounds both to pi/2 and the points map back outside
        # their interval; arctan(ln(w/w0)) keeps them apart, and ln 0 is silent
        M = _hard_case("flat_at_origin").M
        w0 = math.exp(np.log(np.abs(M.poles)).mean())
        ends = np.array(sorted([0.0, 1e-300, 0.115739, 0.115805, w0, 1e20, 1e21, 1e300]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w = criteria._interior(M, ends).reshape(ends.size - 1, -1)
        assert np.isfinite(w).all() and np.all(np.diff(w.ravel()) >= 0)
        assert np.all((ends[:-1, None] < w) & (w < ends[1:, None]))
        # [0, 1e-300] spans only 1.4e-3 in u, so its points underflow
        # to the least float above 0; above it they are distinct
        assert np.all(np.diff(w[1:], axis=1) > 0)

    def test_points_where_the_locus_lives(self):
        # flat_at_origin's Re M dips to -0.2071 at w = 2.414, inside [1.468,
        # 1e300]: a linear fraction of that interval is 1e299, a logarithmic
        # one 1e33, and neither sees the dip
        M = _hard_case("flat_at_origin").M
        w = criteria._interior(M, np.array([1.468, 1e300]))
        assert np.any((w >= 2.0) & (w <= 3.0))


class TestParabolaSeeds:
    def test_every_sampled_peak_gets_a_step(self):
        # two parabolas in u = ln w with vertices at w = 2.5 and w = 40, the
        # second 0.5 below the first: each sampled peak gets its step, the
        # vertex of the parabola through it and its neighbours, exactly
        omegas = np.logspace(0.0, 2.0, 9)
        u = np.log(omegas)
        fv = np.where(np.arange(9) < 4, 1.0 - (u - math.log(2.5)) ** 2, 0.5 - (u - math.log(40.0)) ** 2)
        assert criteria._parabola_seeds(omegas, fv) == pytest.approx([2.5, 40.0], rel=1e-12)


class TestCertificate:
    # M = 1/(s + 1): |M(jw) - x_c|^2 = ((1 - x_c)^2 + x_c^2 w^2) / (1 + w^2) and
    # Re[(1 + jqw) M(jw)] = (1 + q w^2) / (1 + w^2)
    FIRST_ORDER = ss_from_zpk([], [-1.0], 1.0)

    def test_modulus_crossings(self):
        M = self.FIRST_ORDER
        assert _modulus_level(M, 0.0)[1](0.5) == pytest.approx([math.sqrt(3.0)], rel=1e-12)
        assert _modulus_level(M, 0.25)[1](0.5) == pytest.approx([math.sqrt(5.0 / 3.0)], rel=1e-12)

    def test_popov_crossings(self):
        M = self.FIRST_ORDER
        assert _popov_level(M, 0.0, +1)[1](0.25) == pytest.approx([math.sqrt(3.0)], rel=1e-12)
        assert _popov_level(M, 0.0, -1)[1](-0.25) == pytest.approx([math.sqrt(3.0)], rel=1e-12)
        assert _popov_level(M, 0.5, +1)[1](0.75) == pytest.approx([1.0], rel=1e-12)

    def test_crossings_lie_on_their_level(self, session):
        M = session.model.M
        q, x_c = 0.07, -0.8
        for level, crossings, f in (
            (1.5, _modulus_level(M, 0.0)[1], lambda m, w: abs(m)),
            (1.0, _modulus_level(M, x_c)[1], lambda m, w: abs(m - x_c)),
            (1.0, _popov_level(M, 0.0, -1)[1], lambda m, w: -m.real),
            (0.05, _popov_level(M, q, +1)[1], lambda m, w: m.real - q * w * m.imag),
        ):
            w = crossings(level)
            assert w.size
            for wk, mk in zip(w, freq_values(M, w)):
                assert f(mk, wk) == pytest.approx(level, rel=1e-9)

    def test_popov_lower_at_small_feedthrough(self):
        # near the Popov line's asymptote q cb the level function has a tiny
        # feedthrough d; without mapping b to beta e1 first, the crossings
        # at w = 7.32 and 7.83 fell off the axis and Popov lower came out
        # -2.240047, past the exact -2.239994
        rng = np.random.default_rng(0)
        model = [random_rank_one_model(rng, n=6) for _ in range(5)][-1]
        iv = popov_bounds(sample_locus(model.M, n=200))
        assert exact_bounds(model).lower <= iv.lower

    @pytest.mark.filterwarnings("ignore:.*intercept of the wrong sign")
    @pytest.mark.parametrize("seed, index", [(1, 10), (1, 72), (5, 109)])
    def test_witnesses_bound_to_window(self, seed, index):
        # the certificate covers [0, wmax] only: crossings above
        # wmax, or the limit w -> inf, must not set a witness
        rng = np.random.default_rng(seed)
        M = [random_rank_one_model(rng, n=32) for _ in range(index + 1)][-1].M
        s = sample_locus(M)
        r_sg = small_gain_bounds(s).witnesses["r_sg"]
        pr = positive_real_bounds(s).witnesses
        _, m = _window_sweep(M, "modal")
        peak = np.abs(m).max()
        assert r_sg == pytest.approx(peak, abs=1e-6 * peak)
        assert pr["x_max"] == pytest.approx(m.real.max(), abs=1e-6 * peak)
        assert pr["x_min"] == pytest.approx(m.real.min(), abs=1e-6 * peak)

    def test_eight_samples(self, session, dense):
        # a certified bound does not depend on the samples, except circle's
        # center, which is optimized over them: its circle still encloses
        # the locus
        coarse = sample_locus(session.model.M, n=8)
        fine = session.summary
        for bounds in (small_gain_bounds, positive_real_bounds, popov_bounds):
            a, b = bounds(coarse), bounds(fine)
            assert a.lower == pytest.approx(b.lower, rel=2e-6)
            assert a.upper == pytest.approx(b.upper, rel=2e-6)
        w = circle_bounds(coarse).witnesses
        assert np.abs(dense - w["x_c"]).max() <= w["r_c"] * (1 + 1e-9)

    def test_one_solve_per_certificate(self, session, monkeypatch):
        # the parabola seeds put the first level within CERT_RTOL of the
        # peak, so no crossing pair is left: one eigen solve per maximum
        calls = _recorded_solves(monkeypatch)
        small_gain_bounds(session.summary)
        assert len(calls) == 1
        positive_real_bounds(session.summary)
        assert len(calls) == 1 + 2   # x_max and x_min

    def test_popov_merge_keeps_window(self, session, monkeypatch):
        # Popov's rounds on an 8-point grid evaluate many points beyond the
        # samples; the window end wmax is read once, as omegas[-1] of the
        # sorted set passed in (an unsorted merge once moved it onto an
        # interior point), and no point evaluated lies past it
        coarse = sample_locus(session.model.M, n=8)
        wmax = coarse.omegas[-1]
        grids = _recorded_grids(monkeypatch)
        popov_bounds(coarse)
        assert len(grids) == 2   # one loop per side
        for omegas, w in grids:
            assert np.all(np.diff(omegas) >= 0) and omegas[-1] == wmax
            assert w.size > omegas.size and w.max() <= wmax

    @pytest.mark.parametrize("window, most", [({}, 2), ({"n": 8}, 6), ({"wmin": 1.0}, 6)])
    def test_popov_certificates_per_call(self, session, monkeypatch, window, most):
        # seeded with the real-axis crossings, Popov upper's smooth optimum
        # at w = 0.848 settles in one crossing solve per side at the default
        # window.  One loop per side takes one solve per round, 2, 6 and 6
        # here in all (5 and 4 with points spaced linearly in w); a full
        # certificate at each trial slope took 3, 12 and 8 solves, and
        # tangent cuts alone 9, 17 and 17 certificates
        s = sample_locus(session.model.M, **window)
        calls = _recorded_solves(monkeypatch)
        w = popov_bounds(s).witnesses
        assert len(calls) <= most
        assert w["gap_plus"] <= 2e-8 * abs(w["c_plus"])
        assert w["gap_minus"] <= 2e-8 * abs(w["c_minus"])

    def test_popov_evaluates_seeds_once(self, session, monkeypatch):
        # every certificate starts from the same kind of points, all taken in
        # one freq_values call: its parabola steps and each real-axis
        # crossing w* of M with w*(1 +- SEED_EPS), up to wmax.  No start
        # point is read off M's poles: where the samples miss the locus,
        # _interior's rounds find it, densest about M's pole moduli.
        # popov_bounds adds one call of its own, for its sign test of w Im M:
        # 3 on the aircraft, that one and one per side, as each side's first
        # crossing solve finds no crossing, only the near-miss pair at its
        # binding peak
        s = session.summary
        M, wmax = s.system, s.omegas[-1]
        trio = np.array([wk for wk, _ in M.real_crossings if wk > 0])
        trio = np.outer(trio, [1.0 - criteria.SEED_EPS, 1.0, 1.0 + criteria.SEED_EPS]).ravel()
        trio = trio[trio <= wmax]
        calls, starts = [], []
        parabola_seeds, certified_max = criteria._parabola_seeds, criteria._certified_max

        def recorded_values(M, omegas):
            calls.append(np.asarray(omegas))
            return freq_values(M, omegas)

        def recorded_steps(omegas, fv):
            steps = parabola_seeds(omegas, fv)
            starts.append(np.concatenate([steps, trio]))
            return steps

        def recorded_max(*args, **kwargs):
            first = len(calls)
            out = certified_max(*args, **kwargs)
            assert len(calls) > first and np.isin(starts[-1], calls[first]).all()
            assert not any(np.isin(starts[-1], om).any() for om in calls[first + 1:])
            return out

        monkeypatch.setattr(criteria, "freq_values", recorded_values)
        monkeypatch.setattr(criteria, "_parabola_seeds", recorded_steps)
        monkeypatch.setattr(criteria, "_certified_max", recorded_max)
        assert trio.size
        for bounds in (small_gain_bounds, circle_bounds, positive_real_bounds):
            bounds(s)
        assert len(starts) == 4
        calls.clear()
        popov_bounds(s)
        assert len(starts) == 6 and len(calls) == 3

    @pytest.mark.filterwarnings("ignore:.*intercept of the wrong sign")
    @pytest.mark.parametrize("case, window", [
        ("aircraft", {}), ("aircraft", {"wmin": 1e-300, "wmax": 1e300, "n": 10}),
        ("relative_degree_3", {"wmin": 1e-300, "wmax": 1e300, "n": 10}),
    ])
    def test_popov_sign_test_reads_beside_crossings(self, session, monkeypatch, case, window):
        # w Im M changes sign only at M's real-axis crossings, so Popov's sign
        # test reads it at the samples and, in one freq_values call before
        # either side's certificate, at w*(1 +- SEED_EPS) beside each
        # crossing w* in (0, wmax]: the points every certificate starts from
        M = session.model.M if case == "aircraft" else _hard_case(case).M
        s = sample_locus(M, **window)
        beside = np.array([wk for wk, _ in M.real_crossings if 0 < wk <= s.omegas[-1]])
        assert beside.size
        beside = np.outer(beside, [1.0 - criteria.SEED_EPS, 1.0 + criteria.SEED_EPS]).ravel()
        calls, lines = [], []
        certified_max = criteria._certified_max

        def recorded_values(M, omegas):
            if not lines:
                calls.append(np.asarray(omegas))
            return freq_values(M, omegas)

        def recorded_line(*args):
            lines.append(args)
            return certified_max(*args)

        monkeypatch.setattr(criteria, "freq_values", recorded_values)
        monkeypatch.setattr(criteria, "_certified_max", recorded_line)
        popov_bounds(s)
        assert len(calls) == 1
        np.testing.assert_array_equal(np.sort(calls[0]), np.sort(beside[beside <= s.omegas[-1]]))

    def test_aircraft_analysis_work(self, monkeypatch):
        # the default run: one freq_values call per certificate for its
        # start points and one for popov_bounds' sign test, one crossing
        # solve per certificate, and a minimax solve for the circle's center
        # and for each Popov side's samples, start points and gap; the gap's
        # pass starts from the last one's active pair and, as no point
        # followed it, ends at once
        counts = {}

        def counted(name):
            fn = getattr(criteria, name)

            def call(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(criteria, name, call)

        for name in ("freq_values", "imaginary_zeros", "_minimax_line"):
            counted(name)
        assert run_analysis(AnalysisConfig()).all_sound
        assert counts == {"freq_values": 7, "imaginary_zeros": 6, "_minimax_line": 7}

    def test_exhausted_rounds_bound_every_point(self, session, monkeypatch):
        # a certificate that is still open after CERT_ROUNDS rounds warns and
        # takes its bound over every point at the last x, the last round's
        # included: with one round at 8 samples, small gain once returned
        # 1.9558087 while its own points reached 1.9651335, and positive real
        # 0.1798932 against 0.1813008 and 1.9519674 against 1.9571962
        monkeypatch.setattr(criteria, "CERT_ROUNDS", 1)
        s = sample_locus(session.model.M, n=8)
        families = [criteria._modulus_level] + [
            lambda M, q, side=side: criteria._popov_level(M, q, side) for side in (+1, -1)]
        for family in families:
            with pytest.warns(UserWarning, match="not certified after 1 rounds"):
                bound, x, w, m = criteria._certified_max(s, family, lambda w, m: 0.0)
            assert bound >= family(s.system, x)[0](m, w).max()

    def test_popov_shares_crossing_solve(self, session, monkeypatch):
        # the crossing set is cached on M: whichever of exact_bounds and
        # popov_bounds runs first makes the one d = 0 solve, the other none
        calls, zero_dynamics = [], lti._zero_dynamics

        def counted(A, b, c, d):
            if d == 0.0:
                calls.append(A)
            return zero_dynamics(A, b, c, d)

        def exact(model):
            exact_bounds(model)

        def popov(model):
            popov_bounds(sample_locus(model.M))

        monkeypatch.setattr(lti, "_zero_dynamics", counted)
        M = session.model.M
        for first, second in ((exact, popov), (popov, exact)):
            # a copy of M has no crossing set yet
            model = dataclasses.replace(session.model, M=StateSpace(M.A, M.B, M.C, M.D))
            calls.clear()
            first(model)
            assert len(calls) == 1
            second(model)
            assert len(calls) == 1

    @pytest.mark.parametrize("wmax", ["crossing", 0.5])
    def test_popov_seeds_stay_in_window(self, session, monkeypatch, wmax):
        # at the crossing w* = wmax the seed equals wmax and w*(1 + SEED_EPS)
        # is dropped; at 0.5 the crossing lies outside the window, where no
        # negative real value of M is left, so Popov's upper side is
        # unbounded on that window
        if wmax == "crossing":
            wmax = exact_bounds(session.model).witnesses["upper_crossing"][0]
            expected = []
        else:
            expected = ["popov: intercept of the wrong sign; side reported as unbounded"]
        s = sample_locus(session.model.M, wmax=wmax)
        assert s.omegas[-1] == wmax
        grids = _recorded_grids(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            popov_bounds(s)
        assert [str(w.message) for w in caught] == expected
        assert grids
        for omegas, w in grids:
            assert np.all(np.diff(omegas) >= 0) and omegas[-1] == wmax
            assert w.max() <= wmax

    def test_certified_below_wmin(self, session):
        # each certificate's crossings start at w = 0, so it covers [0, wmax],
        # the gap (0, wmin) below the samples included
        s = sample_locus(session.model.M, wmin=1.0)
        w = np.logspace(-6, 0, 100_001)[:-1]
        m = dense_response(session.model.M, w)
        r_sg = small_gain_bounds(s).witnesses["r_sg"]
        circle = circle_bounds(s).witnesses
        pr = positive_real_bounds(s).witnesses
        popov = popov_bounds(s).witnesses
        assert np.abs(m).max() <= r_sg * (1 + 1e-9)
        assert np.abs(m - circle["x_c"]).max() <= circle["r_c"] * (1 + 1e-9)
        assert pr["x_min"] - 1e-9 * abs(pr["x_min"]) <= m.real.min()
        assert m.real.max() <= pr["x_max"] + 1e-9 * abs(pr["x_max"])
        for q, c, side in ((popov["q_plus"], popov["c_plus"], 1), (popov["q_minus"], popov["c_minus"], -1)):
            _assert_popov_line(q, c, side, w, m, 1e-9 * abs(c))

    @pytest.mark.filterwarnings("ignore:.*intercept of the wrong sign")
    @pytest.mark.parametrize("case", HARD_CASES)
    def test_hard_case_enclosed(self, case):
        model = _hard_case(case)
        oracle = "per_point" if case in PER_POINT_CASES else "modal"
        w, m = _window_sweep(model.M, oracle)
        exact = exact_bounds(model)
        for npoints in HARD_CASE_NPOINTS.get(case, (4000,)):
            s = sample_locus(model.M, n=npoints)
            _assert_encloses(_graphical_witnesses(s), w, m)
            # Popov, the widest of them, stays inside the exact interval, whether
            # it reads the real axis (jordan_block, cb_zero, flat_at_origin) or not
            popov = popov_bounds(s)
            assert popov.lower >= exact.lower * (1 + criteria.INSIDE_RTOL), npoints
            assert popov.upper <= exact.upper * (1 + criteria.INSIDE_RTOL), npoints

    @pytest.mark.parametrize("npoints", [10, 40])
    def test_extreme_window_sound(self, npoints):
        # no sample of [1e-300, 1e300] lands near the aircraft's locus.  A
        # certificate that started from the samples alone, with its interior
        # points spaced linearly in w, read r_sg = 1.04e-7 at 40 points
        # (2.9e-14 at 10) against 1.96519, and small gain and circle failed
        # their audits; _interior's rounds, evenly in arctan(ln w/w0), find
        # the locus from the samples and M's real-axis crossings alone
        result = run_analysis(AnalysisConfig(wmin=1e-300, wmax=1e300, npoints=npoints))
        assert len(result.reports) == 5 and result.all_sound
        assert result.intervals["small_gain"].witnesses["r_sg"] == pytest.approx(1.96519, rel=1e-5)
        witnesses = {k: v for iv in result.intervals.values() for k, v in iv.witnesses.items()}
        m = dense_response(result.session.model.M, SWEEP_OMEGAS)
        _assert_encloses(witnesses, SWEEP_OMEGAS, m)

    @pytest.mark.filterwarnings("ignore:.*intercept of the wrong sign")
    @pytest.mark.parametrize("case", ["aircraft", 1, 3, 5, *CENSUS_CASES])
    def test_every_window_sound(self, session, case):
        # every witness holds on [0, wmax] whatever the window: the aircraft,
        # three n = 32 random models (seed 1) and the hard cases at each of
        # WINDOWS.  With its interior points spaced linearly in w, positive
        # real on flat_at_origin at [1e-300, 1e300] put none of them in
        # [1.468, 1e300] near the excursion to Re M = -0.2071 at w = 2.414,
        # and read x_min = -6.5e-67 (10 points) and -1.2e-15 (40)
        if case == "aircraft":
            M = session.model.M
        elif isinstance(case, int):
            rng = np.random.default_rng(1)
            M = [random_rank_one_model(rng, n=32) for _ in range(case + 1)][-1].M
        else:
            M = _hard_case(case).M
        if case in PER_POINT_CASES:
            w, m = THIN_OMEGAS, _per_point(M, THIN_OMEGAS)
        else:
            w, m = SWEEP_OMEGAS, dense_response(M, SWEEP_OMEGAS)
        for window in WINDOWS:
            s = sample_locus(M, **window)
            keep = w <= s.omegas[-1]
            _assert_encloses(_graphical_witnesses(s), w[keep], m[keep])

    @pytest.mark.filterwarnings("ignore:.*intercept of the wrong sign")
    @pytest.mark.parametrize("npoints", [2, 3])
    def test_sign_test_extreme_window(self, npoints):
        # on relative_degree_3, w Im M changes sign at its crossing w = 1.
        # At [1e-300, 1e300] no sample sees that, and the sign test's point
        # in the gap [1, 1e300] once sat at the arithmetic midpoint 5e299,
        # where M reads 0: both sides took the real axis, q = -+inf, which
        # the locus crosses.  The test now reads w Im M just beside w = 1
        M = _hard_case("relative_degree_3").M
        s = sample_locus(M, wmin=1e-300, wmax=1e300, n=npoints)
        _assert_encloses(_graphical_witnesses(s), THIN_OMEGAS, _per_point(M, THIN_OMEGAS))

    @pytest.mark.filterwarnings("ignore:.*intercept of the wrong sign")
    def test_flat_origin_popov_reaches_exact(self):
        # M'(0) = 0: Popov lower's optimum lies at |q| -> inf, where the
        # limit line reads -1/M(0) = -1.0 exactly; |q| <= 1e8 read -0.99999999
        s = sample_locus(_hard_case("flat_at_origin").M)
        assert popov_bounds(s).lower == -1.0

    @pytest.mark.filterwarnings("ignore:.*intercept of the wrong sign")
    @pytest.mark.parametrize("npoints", [10, 40])
    def test_flat_origin_extreme_window(self, npoints):
        # at w = 1e-100 the sampled Im M reads +1e-115, rounding against a
        # true -8e-300, and the sign test once took it for a change of sign:
        # the cutting planes chased it to |q| = 9e9, whose f overflowed, and
        # the crossing solve raised on a nan level.  An Im M below the
        # rounding unit of |M| votes no sign, so Popov reads the limit line,
        # as at the default window
        s = sample_locus(_hard_case("flat_at_origin").M, wmin=1e-300, wmax=1e300, n=npoints)
        assert popov_bounds(s).lower == -1.0

    @pytest.mark.filterwarnings("ignore:.*intercept of the wrong sign")
    @pytest.mark.parametrize("case", ["jordan_block", "cb_zero"])
    def test_limit_line_reaches_exact(self, case):
        # w Im M keeps one sign on both: each side reads the real axis, |q|
        # = inf with gap 0, and Popov lower is the exact bound (jordan_block:
        # -0.5, which |q| <= 1e8 missed by 1e-8 relative)
        model = _hard_case(case)
        iv = popov_bounds(sample_locus(model.M))
        w = iv.witnesses
        assert [abs(w["q_plus"]), abs(w["q_minus"]), w["gap_plus"], w["gap_minus"]] == [
            math.inf, math.inf, 0.0, 0.0]
        assert iv.lower == exact_bounds(model).lower

    @pytest.mark.filterwarnings("ignore:.*intercept of the wrong sign")
    @pytest.mark.parametrize("npoints", [2, 8])
    def test_jw_axis_zero_enclosed(self, npoints):
        # M's zero at w = 1 is a crossing at 0.0 that bounds no delta, and w
        # Im M changes sign there.  Read as a rounding zero and dropped, it
        # left the samples (2 or 8) and one point between each of the other
        # crossings all of one sign, and both sides took the real axis: the
        # left one at c = 0.25, past the origin the locus passes through
        model = _hard_case("jw_axis_zero")
        assert [x for w, x in model.M.real_crossings if w == pytest.approx(1.0)] == [0.0]
        s = sample_locus(model.M, n=npoints)
        # the triple pole makes the modal oracle unreliable here
        _assert_encloses(_graphical_witnesses(s), *_window_sweep(model.M, "per_point"))
        popov, exact = popov_bounds(s), exact_bounds(model)
        assert popov.lower >= exact.lower * (1 + criteria.INSIDE_RTOL)
        assert popov.upper <= exact.upper

    @pytest.mark.filterwarnings("ignore:.*intercept of the wrong sign")
    @pytest.mark.parametrize("seed, tilt", [(3, -1e-6), (6, -1e-8)])
    def test_small_excursion_enclosed(self, seed, tilt):
        # a tilted touch: w Im M has the other sign only on an excursion about
        # sqrt(|tilt|) wide at w = 1, so the optimal slope is large (about
        # 6.6e2 and 4.8e3 here); the line still encloses a dense sweep, the
        # excursion sampled finely, and Popov stays inside exact
        model = _touch_model(seed, False, tilt)
        s = sample_locus(model.M)
        w, m = _window_sweep(model.M, "modal")
        near = 1.0 + np.linspace(-1e-2, 1e-2, 20_001)
        w, m = np.concatenate([w, near]), np.concatenate([m, dense_response(model.M, near)])
        witnesses = _graphical_witnesses(s)
        assert max(abs(witnesses["q_plus"]), abs(witnesses["q_minus"])) > 100.0
        assert math.isfinite(witnesses["q_plus"]) and math.isfinite(witnesses["q_minus"])
        _assert_encloses(witnesses, w, m)
        popov, exact = popov_bounds(s), exact_bounds(model)
        assert popov.lower >= exact.lower * (1 + criteria.INSIDE_RTOL)
        assert popov.upper <= exact.upper * (1 + criteria.INSIDE_RTOL)

    @pytest.mark.parametrize("margin, npoints, scale", [
        (0.0, 2, 1.0), (0.0, 4, 1.0), (0.0, 6, 1.0), (0.01, 2, 1.0), (0.0, 2, 1e3), (0.01, 2, 1e3),
        (0.0, 2, 1e-6), (0.0, 4, 1e-6), (0.01, 2, 1e-6), (0.0, 2, 1e6)])
    def test_sparse_grid_sound(self, margin, npoints, scale):
        # with no sample in the bulk of the aircraft's locus, whose M(0) and
        # M(j inf) are both 0 at margin 0, the level sits at the limit of f
        # as w -> inf, where the level's crossing solve can lose crossings:
        # positive real upper (margin 0) or the circle (margin 0.01) would
        # read past exact.  M scaled by 1e3 (delta by 1e-3) puts M(0) at 2.9e-11.
        # Scaled by 1e-6 or 1e6, small gain and the circle read past exact
        # unless the circle's solve is realized on the same scale as M's
        for kq in (1.3, 1.6, 1.9):
            for gain in (2.6, 3.14, 3.7):
                config = AnalysisConfig(
                    kq=kq, controller_gain=gain, stability_margin=margin, npoints=npoints)
                session = build_session(config)
                H, Qcal = closed_loop_uncertain(session.augmented, session.controller)
                model = model_of(H, scale * Qcal, margin)
                intervals, reports = analyze_model(model, sample_locus(model.M, n=npoints), config)
                exact = intervals["exact"]
                lower_tol = CONTAIN_REL * abs(exact.lower) + CONTAIN_ABS / scale
                upper_tol = CONTAIN_REL * abs(exact.upper) + CONTAIN_ABS / scale
                for name, iv in intervals.items():
                    assert iv.lower >= exact.lower - lower_tol, (kq, gain, name)
                    assert iv.upper <= exact.upper + upper_tol, (kq, gain, name)
                assert all(r.passed for r in reports.values()), (kq, gain)


class TestSmallGain:
    def test_radius_covers_dense_sweep(self, session, dense):
        iv = small_gain_bounds(session.summary)
        r = iv.witnesses["r_sg"]
        dense_max = np.abs(dense).max()
        assert dense_max <= r * (1 + 1e-9)
        assert r - dense_max <= 1e-6 * r

    def test_symmetric_interval(self, session):
        iv = small_gain_bounds(session.summary)
        assert iv.lower == -iv.upper
        assert iv.upper == pytest.approx(1.0 / iv.witnesses["r_sg"])

    def test_decoupled_model_unbounded(self):
        # Qcal feeds the second state from the first, which H never reaches:
        # M = 0, so r_sg = 0 and every delta is stable
        model = model_of(np.diag([-1.0, -2.0]), np.outer([1.0, 0.0], [0.0, 1.0]))
        config = AnalysisConfig()
        with pytest.warns(UserWarning, match="intercept of the wrong sign") as record:
            intervals, reports = analyze_model(model, sample_locus(model.M), config)
        assert {name: (iv.lower, iv.upper) for name, iv in intervals.items()} == {
            name: (-math.inf, math.inf) for name in criteria.CRITERIA}
        assert reports == {}
        assert intervals["small_gain"].witnesses["r_sg"] == 0.0
        assert sorted(str(w.message).split(":")[0] for w in record) == [
            "circle", "popov", "positive_real", "small_gain"]


class TestCircle:
    def test_circle_covers_dense_sweep(self, session, dense):
        iv = circle_bounds(session.summary)
        xc, rc = iv.witnesses["x_c"], iv.witnesses["r_c"]
        d = np.abs(dense - xc)
        assert d.max() <= rc * (1 + 1e-9)
        assert rc - d.max() <= 1e-6 * rc

    def test_two_peak_circle_covers_dense_sweep(self):
        # the optimal circle of this model touches the locus at two near-equal
        # peaks; polishing only the sampled argmax left the locus 2.5e-6 r_c
        # outside the reported circle
        rng = np.random.default_rng(1)
        M = [random_rank_one_model(rng, n=32) for _ in range(3)][-1].M
        iv = circle_bounds(sample_locus(M))
        xc, rc = iv.witnesses["x_c"], iv.witnesses["r_c"]
        assert np.abs(dense_response(M, DENSE_OMEGAS) - xc).max() <= rc * (1 + 1e-9)

    def test_optimal_center_stationary(self, session):
        iv = circle_bounds(session.summary)
        xc, rc = iv.witnesses["x_c"], iv.witnesses["r_c"]
        X = session.summary.values.real
        Y = session.summary.values.imag

        def radius(c):
            return np.sqrt((X - c) ** 2 + Y ** 2).max()

        for h in (1e-3, -1e-3):
            assert radius(xc + h) >= rc - 1e-10

    def test_intercepts(self, session):
        iv = circle_bounds(session.summary)
        xc, rc = iv.witnesses["x_c"], iv.witnesses["r_c"]
        assert iv.lower == pytest.approx(-1.0 / (xc + rc))
        assert iv.upper == pytest.approx(-1.0 / (xc - rc))

    @pytest.mark.parametrize("center", ["centroid", "midpoint"])
    def test_unknown_mode_rejected(self, session, center):
        with pytest.raises(ValueError):
            circle_bounds(session.summary, center=center)


class TestPositiveReal:
    def test_extremes_cover_dense_sweep(self, session, dense):
        iv = positive_real_bounds(session.summary)
        x_max, x_min = iv.witnesses["x_max"], iv.witnesses["x_min"]
        assert dense.real.max() <= x_max + 1e-9 * abs(x_max)
        assert dense.real.min() >= x_min - 1e-9 * abs(x_min)
        assert x_max - dense.real.max() <= 1e-6 * abs(x_max)
        assert dense.real.min() - x_min <= 1e-6 * abs(x_min)

    def test_unbounded_side_warns(self):
        # locus of 1/(s+1) stays in the right half plane: no negative
        # intercept, upper bound reported unbounded
        M = ss_from_zpk([], [-1.0], 1.0)
        s = sample_locus(M, wmin=1e-3, wmax=1e3, n=400)
        with pytest.warns(UserWarning, match="unbounded"):
            iv = positive_real_bounds(s)
        assert iv.upper_unbounded
        assert iv.upper == math.inf
        assert iv.lower == pytest.approx(-1.0, rel=1e-6)


def _assert_popov_lines_cover(iv, dense):
    # each reported line must certify its intercept on the continuous
    # locus; the slack, relative to the intercept, only absorbs the
    # rounding difference between the oracle and the solver path
    w = iv.witnesses
    for side, name in ((1, "plus"), (-1, "minus")):
        c = w[f"c_{name}"]
        _assert_popov_line(w[f"q_{name}"], c, side, DENSE_OMEGAS, dense, 1e-8 * abs(c))


class TestPopov:
    def test_lines_cover_dense_sweep(self, session, dense):
        _assert_popov_lines_cover(popov_bounds(session.summary), dense)

    def test_lines_cover_dense_sweep_at_retuned_gains(self):
        # gains where two Popov samples an ulp apart once made the polish at
        # q_minus miss the continuous minimum near w = 0.805 by 3.3e-8, which
        # put the Popov upper bound past the exact one
        config = AnalysisConfig(
            kq=1.9001495835953641, kalpha=1.917276013953619,
            controller_gain=3.2884724391826543,
        )
        session = build_session(config)
        iv = popov_bounds(session.summary)
        _assert_popov_lines_cover(iv, dense_response(session.model.M, DENSE_OMEGAS))
        assert iv.upper <= exact_bounds(session.model).upper

    def test_slope_optimality_on_grid(self, session, dense):
        """2-D grid oracle: no slope on a coarse grid does better than the
        optimized intercepts (to 0.1%)."""
        iv = popov_bounds(session.summary)
        w = iv.witnesses
        oy = DENSE_OMEGAS * dense.imag
        qs = np.concatenate([-np.logspace(2, -3, 40), [0.0], np.logspace(-3, 2, 40)])
        sup = np.array([(dense.real - q * oy).max() for q in qs])
        inf = np.array([(dense.real - q * oy).min() for q in qs])
        assert sup.min() >= w["c_plus"] - 1e-3 * abs(w["c_plus"])
        assert inf.max() <= w["c_minus"] + 1e-3 * abs(w["c_minus"])

    def test_gap_certifies_aircraft_optimum(self, session):
        # the certified gap to the optimum over every slope: the lower
        # bound -11.524 is optimal on the model, not an optimizer shortfall
        w = popov_bounds(session.summary).witnesses
        assert w["gap_plus"] <= 2e-8 * abs(w["c_plus"])
        assert w["gap_minus"] <= 2e-8 * abs(w["c_minus"])
        assert -1.0 / w["c_plus"] == pytest.approx(-11.524, abs=5e-4)

    @pytest.mark.filterwarnings("ignore:.*intercept of the wrong sign")
    @pytest.mark.parametrize("case", ["aircraft", *HARD_CASES])
    def test_gap_within_tolerance_every_window(self, session, case):
        # w Im M keeps one sign on cb_zero, jordan_block and flat_at_origin,
        # so both their sides read the limit line at every window.  At
        # [1e-300, 1e300] relative_degree_3's samples alone set a slope of
        # -2.3e66, whose f once overflowed at w = 1e300 (a RuntimeWarning),
        # and flat_at_origin once raised (test_flat_origin_extreme_window)
        M = session.model.M if case == "aircraft" else _hard_case(case).M
        sides = sum(_finite_popov_gaps(sample_locus(M, **window)) for window in WINDOWS)
        assert sides or case in ("cb_zero", "jordan_block", "flat_at_origin")

    @pytest.mark.filterwarnings("ignore:.*intercept of the wrong sign")
    def test_gap_within_tolerance_random(self, random_summaries):
        assert sum(_finite_popov_gaps(s) for s in random_summaries)

    def test_rounding_zero_limit_line_unbounded(self, session):
        # below the aircraft's real-axis crossings w Im M keeps one sign, so
        # both sides read the limit line through M(0), a rounding zero (the
        # sample reads 2.7e-14).  Read off real_crossings, as exact_bounds
        # reads it, it is 0.0 and both sides are unbounded; the raw sample
        # put Popov lower at -3.65e13
        s = sample_locus(session.model.M, wmax=0.01)
        with pytest.warns(UserWarning, match="popov: intercept of the wrong sign"):
            iv = popov_bounds(s)
        assert (iv.lower, iv.upper) == (-math.inf, math.inf)
        assert (iv.witnesses["c_plus"], iv.witnesses["c_minus"]) == (0.0, 0.0)

    def test_at_least_as_wide_as_positive_real(self, session):
        pr = positive_real_bounds(session.summary)
        pv = popov_bounds(session.summary)
        tol = 1e-9
        assert pv.lower <= pr.lower + tol * abs(pr.lower)
        assert pv.upper >= pr.upper - tol * abs(pr.upper)


class TestExact:
    def test_routes_agree(self, session):
        locus_iv = exact_bounds(session.model, session.summary)
        scan_iv = scan_exact_bounds(session.model)
        assert locus_iv.lower == pytest.approx(scan_iv.lower, rel=1e-4)
        assert locus_iv.upper == pytest.approx(scan_iv.upper, rel=1e-4)

    def test_boundary_is_sharp(self, session):
        iv = exact_bounds(session.model, session.summary)
        for bound in (iv.lower, iv.upper):
            inside = bound * (1 - 1e-4)
            outside = bound * (1 + 1e-4)
            eig_in = np.linalg.eigvals(
                closed_loop_matrix(session.model, inside)
            ).real.max()
            eig_out = np.linalg.eigvals(
                closed_loop_matrix(session.model, outside)
            ).real.max()
            assert eig_in < 0 < eig_out

    def test_margin_shrinks_interval(self, session):
        plain = exact_bounds(session.model, session.summary)
        tight = exact_bounds(build_session(AnalysisConfig(stability_margin=0.005)).model)
        assert tight.lower > plain.lower
        assert tight.upper < plain.upper

    def test_unstable_nominal_rejected(self, session):
        # an unstable H beside the stable M: the model itself is refused
        with pytest.raises(DimensionError, match="realized on H"):
            dataclasses.replace(session.model, H=np.eye(8), M=session.model.M)
        # built directly, not by build_mdelta; M is realized on the unstable H
        bad = model_of(np.eye(8), session.model.Qcal)
        with pytest.raises(UnstableFixedPartError):
            exact_bounds(bad, session.summary)

    def test_aircraft_interval(self, session):
        iv = exact_bounds(session.model)
        assert iv.lower == pytest.approx(-16.3939420, abs=1e-8)
        assert iv.upper == pytest.approx(0.51230374, abs=1e-8)
        assert iv.witnesses["lower_crossing"][0] == pytest.approx(0.0209409, rel=1e-5)
        assert iv.witnesses["upper_crossing"][0] == pytest.approx(0.8483107, rel=1e-6)

    @pytest.mark.parametrize("case", HARD_CASES)
    def test_hard_case_matches_scan(self, case, session):
        model = _hard_case(case)
        iv = exact_bounds(model)
        # the scan audits the loop as built at margin 0 against Re s < -margin;
        # it marches in steps of 0.05 at n = 128 to keep its cost down
        margin = model.margin
        unshifted = session.model if margin else model
        step = 0.05 if model.H.shape[0] > 32 else 0.01
        scan = scan_exact_bounds(unshifted, lo=-100.0, hi=100.0, step=step, margin=margin)
        for side in ("lower", "upper"):
            assert getattr(iv, f"{side}_unbounded") == getattr(scan, f"{side}_unbounded")
            if not getattr(iv, f"{side}_unbounded"):
                assert getattr(iv, side) == pytest.approx(getattr(scan, side), abs=1e-6)
        # the guardian map sees both sides, unbounded ones past the scan's range included
        if model.H.shape[0] <= 32:
            guardian = guardian_exact_bounds(model.H, model.Qcal)
            assert (guardian.lower, guardian.upper) == pytest.approx((iv.lower, iv.upper), rel=1e-9)

    @pytest.mark.parametrize("case", HARD_CASES)
    def test_hard_case_is_sharp(self, case, session):
        model = _hard_case(case)
        iv = exact_bounds(model)
        margin = model.margin
        unshifted = session.model if margin else model
        bounds = [b for b in (iv.lower, iv.upper) if math.isfinite(b)]
        assert bounds
        for bound in bounds:
            inside = np.linalg.eigvals(closed_loop_matrix(unshifted, bound * (1 - 1e-4)))
            outside = np.linalg.eigvals(closed_loop_matrix(unshifted, bound * (1 + 1e-4)))
            assert inside.real.max() < -margin < outside.real.max()

    def test_relative_degree_3_interval(self):
        # s^3 + 2s^2 + s + 1 + delta is Hurwitz exactly for -1 < delta < 1
        iv = exact_bounds(_hard_case("relative_degree_3"))
        assert (iv.lower, iv.upper) == pytest.approx((-1.0, 1.0), rel=1e-12)
        assert iv.witnesses["upper_crossing"] == pytest.approx((1.0, -1.0), rel=1e-12)

    # seeds 0-19 where the touch binds the upper bound; with M(0) = 1 each of
    # them is also bounded below, so its interval is audited
    @pytest.mark.parametrize("at_origin, binding", [
        (True, (4, 9, 14)), (False, (2, 3, 9, 12, 14, 15, 16, 17, 18)),
    ], ids=["m0", "free"])
    @pytest.mark.filterwarnings("ignore:.*intercept of the wrong sign")
    def test_tangential_touch_found(self, at_origin, binding):
        # a double zero of M(s) - M(-s) is found to about sqrt(eps) and splits
        # in two; the pair is one crossing at its midpoint, where M is real.
        # Popov stays inside: its line at q = -1e8 once missed the touch
        # M(j) = -5 and read 0.2 + 2e-9 on free seeds 3 and 16
        for seed in range(20):
            model = _touch_model(seed, at_origin)
            iv = exact_bounds(model)
            assert iv.upper <= 0.2 + 1e-7, seed
            popov = popov_bounds(sample_locus(model.M))
            assert popov.upper <= iv.upper * (1 + criteria.INSIDE_RTOL), seed
            assert popov.lower >= iv.lower * (1 + criteria.INSIDE_RTOL), seed
            if seed in binding:
                assert iv.upper == pytest.approx(0.2, abs=1e-8), seed
                if at_origin:
                    assert verify_interval(model, iv, 50).passed, seed

    @pytest.mark.parametrize("case", ["relative_degree_3", "light_damping", "random_n128",
                                      "aircraft_margin"])
    def test_bounds_probed_marginal(self, case):
        # the exact interval passes with no sample; each bound moved by 1e-3
        # relative, in or out, fails at that bound
        model = _hard_case(case)
        iv = exact_bounds(model)
        with pytest.warns(UserWarning, match="vacuous"):
            assert verify_interval(model, iv, 0).passed
            for side in ("lower", "upper"):
                for factor in (1 - 1e-3, 1 + 1e-3):
                    moved = dataclasses.replace(iv, **{side: getattr(iv, side) * factor})
                    report = verify_interval(model, moved, 0)
                    assert [d for d, _ in report.failures] == [getattr(moved, side)]

    def test_window_independent(self):
        def exact(**window):
            config = AnalysisConfig(criteria=("exact",), **window)
            iv = run_analysis(config).intervals["exact"]
            return iv.lower, iv.upper

        base = exact()
        for window in ({"wmax": 0.01}, {"wmin": 1.0}, {"npoints": 8}):
            assert exact(**window) == base


class TestHardCaseResponse:
    @pytest.mark.parametrize("case", HARD_CASES)
    def test_matches_per_point_solve(self, case):
        # random_n128 on the default window also covers the rescaling of the
        # recurrence, which overflows near w = 1e4 without it
        M = _hard_case(case).M
        grid = np.logspace(-4, 4, 1001)
        values = freq_values(M, grid)
        per_point = np.array([M.evaluate(1j * w)[0, 0] for w in grid])
        assert np.all(np.isfinite(values))
        assert np.abs(values - per_point).max() <= 1e-12 * np.abs(per_point).max()


class TestOrderingProperties:
    def test_default_model_nesting(self, session):
        s = session.summary
        exact = exact_bounds(session.model, s)
        sg = small_gain_bounds(s)
        ci = circle_bounds(s)
        pr = positive_real_bounds(s)
        pv = popov_bounds(s)
        for iv in (sg, ci, pr, pv):
            assert exact.lower <= iv.lower < 0 < iv.upper <= exact.upper
        # lower bounds relax down the chain for this locus; upper bounds
        # are not monotone side by side, but Popov must contain positive
        # real by construction
        assert sg.lower >= ci.lower >= pr.lower >= pv.lower >= exact.lower
        assert pr.upper <= pv.upper <= exact.upper

    def test_random_models_sound(self, random_models, random_summaries):
        for model, summary in zip(random_models, random_summaries):
            exact = exact_bounds(model, summary)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ivs = [
                    small_gain_bounds(summary),
                    circle_bounds(summary),
                    positive_real_bounds(summary),
                    popov_bounds(summary),
                ]
            for iv in ivs:
                if not iv.lower_unbounded and not exact.lower_unbounded:
                    assert iv.lower >= exact.lower - 1e-6 * abs(exact.lower)
                if not iv.upper_unbounded and not exact.upper_unbounded:
                    assert iv.upper <= exact.upper + 1e-6 * abs(exact.upper)
                if not (iv.lower_unbounded or iv.upper_unbounded):
                    report = verify_interval(model, iv, 25)
                    assert report.passed, (iv.criterion, report.failures)

    def test_random_circle_contains_small_gain(self, random_summaries):
        for summary in random_summaries:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sg = small_gain_bounds(summary)
                ci = circle_bounds(summary)
            r_sg = sg.witnesses["r_sg"]
            assert ci.witnesses["r_c"] <= r_sg * (1 + 1e-9)


class TestVerification:
    def test_exact_interval_passes(self, session):
        iv = exact_bounds(session.model, session.summary)
        report = verify_interval(session.model, iv, 50)
        assert report.passed and report.n_checked == 50
        assert report.failures == () and report.crossings == ()

    def test_exact_audit_is_one_solve(self, session, monkeypatch):
        # the interior deltas and the two probes just outside the exact
        # bounds go through one _max_real_parts call
        iv = exact_bounds(session.model)
        solve, sizes = criteria._max_real_parts, []

        def counted(model, deltas):
            sizes.append(deltas.size)
            return solve(model, deltas)

        monkeypatch.setattr(criteria, "_max_real_parts", counted)
        assert verify_interval(session.model, iv, 50).passed
        assert sizes == [52]

    def test_inflated_interval_fails(self, session):
        iv = exact_bounds(session.model, session.summary)
        bad = dataclasses.replace(iv, upper=1.0)
        report = verify_interval(session.model, bad, 100)
        assert not report.passed
        assert any(d > iv.upper for d, _ in report.failures)

    def test_stacked_audit_equals_per_delta(self, session):
        iv = exact_bounds(session.model, session.summary)
        bad = dataclasses.replace(iv, upper=1.0)
        # more deltas than one stack of 8x8 matrices holds
        n_samples = STACK_BYTES // (8 * session.model.H.size) + 52
        report = verify_interval(session.model, bad, n_samples)
        per_delta = []
        for d in np.linspace(bad.lower, bad.upper, n_samples + 2)[1:-1]:
            matrix = closed_loop_matrix(session.model, float(d))
            mr = float(np.linalg.eigvals(matrix).real.max())
            if mr >= 0.0:
                per_delta.append((float(d), mr))
        # the exact lower bound is marginal, the moved-out upper one is not
        probe = float(np.linalg.eigvals(closed_loop_matrix(session.model, 1.0)).real.max())
        assert per_delta and report.failures == (*per_delta, (1.0, probe))

    def test_interval_past_a_crossing_fails(self, session):
        # every sample of (-16.46, 0.5) is stable; the eigenvalue reaching the
        # axis at the exact lower bound lies between two of them
        iv = dataclasses.replace(popov_bounds(session.summary), lower=-16.46, upper=0.5)
        report = verify_interval(session.model, iv, 50)
        exact = exact_bounds(session.model)
        assert not report.passed and report.failures == ()
        assert report.crossings == ((exact.lower, exact.witnesses["lower_crossing"][0]),)

    def test_vacuous_verification_warns(self, session):
        iv = small_gain_bounds(session.summary)
        with pytest.warns(UserWarning, match="vacuous"):
            report = verify_interval(session.model, iv, 0)
        assert report.passed and report.n_checked == 0

    def test_vacuous_audit_still_probes_outside_exact(self, session):
        # no interior sample, but the matrix at the moved-in upper bound is
        # stable, with no eigenvalue on the jw-axis
        iv = exact_bounds(session.model)
        inward = dataclasses.replace(iv, upper=0.5 * iv.upper)
        with pytest.warns(UserWarning, match="vacuous"):
            report = verify_interval(session.model, inward, 0)
        assert not report.passed and report.n_checked == 0 and report.crossings == ()
        assert [d for d, _ in report.failures] == [inward.upper]

    @pytest.mark.parametrize("upper", [0.1, -0.1])
    def test_empty_interval_passes_unsampled(self, session, upper):
        iv = StabilityInterval(lower=0.1, upper=upper, criterion="small_gain", witnesses={})
        report = verify_interval(session.model, iv, 50)
        assert report.passed and report.n_checked == 0
        assert report.failures == () and report.crossings == ()

    def test_negative_sample_count_rejected(self, session):
        iv = small_gain_bounds(session.summary)
        with pytest.raises(ValueError, match="n_samples"):
            verify_interval(session.model, iv, -1)

    def test_unbounded_interval_rejected(self, session):
        M = ss_from_zpk([], [-1.0], 1.0)
        s = sample_locus(M, wmin=1e-3, wmax=1e3, n=400)
        with pytest.warns(UserWarning):
            iv = positive_real_bounds(s)
        with pytest.raises(ValueError):
            verify_interval(session.model, iv, 10)


class TestSplitAudit:
    """The sampled audit's eigen solves on a worker thread and the caller."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(criteria, "_cpus", lambda: 2)

    @staticmethod
    def record_workers(monkeypatch):
        """Extra threads alive as each worker starts, one entry per worker."""
        base = threading.active_count()
        alive = []

        class Recorded(threading.Thread):
            def run(self):
                alive.append(threading.active_count() - base)
                super().run()

        monkeypatch.setattr(threading, "Thread", Recorded)
        return alive

    # one worker per pair of stacks, once a half holds more than GIL_FREE_SIZE
    # / n deltas (25 x 8 = 200 does not, 100 x 8 and 25 x 24 do), and never
    # more than one alive: 50 deltas make stacks of 16 at n = 64, 4 at n = 128
    @pytest.mark.parametrize(
        "n, k, workers",
        [(8, 50, 0), (8, 200, 1), (24, 50, 1), (32, 50, 1), (64, 50, 2), (128, 50, 6),
         (32, 2000, 16)],
        ids=["8-0", "8-200-1", "24-1", "32-1", "64-1", "128-1", "32-2000-1"],
    )
    def test_equals_serial_eigvals(self, monkeypatch, n, k, workers):
        model = random_rank_one_model(np.random.default_rng(0), n)
        deltas = np.linspace(-1.0, 1.0, k + 2)[1:-1]
        reference = np.array([
            np.linalg.eigvals(closed_loop_matrix(model, float(d))).real.max() for d in deltas
        ])
        before = threading.active_count()
        alive = self.record_workers(monkeypatch)
        got = criteria._max_real_parts(model, deltas)
        assert got.tobytes() == reference.tobytes()
        assert alive == [1] * workers
        assert threading.active_count() == before

    def test_stacks_bounded_and_built_on_caller(self, monkeypatch):
        # 20000 deltas at n = 8: stacks of at most 1024 matrices, never more
        # than two of them alive, all built on the calling thread
        model = random_rank_one_model(np.random.default_rng(0), 8)
        deltas = np.linspace(-1.0, 1.0, 20000)
        build, solve = criteria.closed_loop_matrix, np.linalg.eigvals
        stacks, sizes, builders = [], [], set()

        def built(model, delta):
            builders.add(threading.get_ident())
            stack = build(model, delta)
            stacks.append(weakref.ref(stack))
            assert sum(ref() is not None for ref in stacks) <= 2
            return stack

        def solved(a):
            sizes.append(len(a))
            return solve(a)

        monkeypatch.setattr(criteria, "closed_loop_matrix", built)
        monkeypatch.setattr(np.linalg, "eigvals", solved)
        before = threading.active_count()
        alive = self.record_workers(monkeypatch)
        criteria._max_real_parts(model, deltas)
        assert builders == {threading.get_ident()}
        assert sum(sizes) == deltas.size
        assert max(sizes) <= max(STACK_BYTES // (8 * 8 * 8), GIL_FREE_SIZE // 8 + 1)
        assert alive == [1] * 10 and threading.active_count() == before

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_worker_failure_is_raised(self, monkeypatch, cpus):
        monkeypatch.setattr(criteria, "_cpus", lambda: cpus)
        model = random_rank_one_model(np.random.default_rng(0), 32)
        # with max |Qcal| = 2, delta*Qcal overflows to inf past delta = 9e307:
        # among the 50 samples of (-1, 1.5e308), only in the second half
        model = dataclasses.replace(model, Qcal=2.0 * model.Qcal / np.abs(model.Qcal).max())
        iv = StabilityInterval(lower=-1.0, upper=1.5e308, criterion="small_gain", witnesses={})
        deltas = np.linspace(iv.lower, iv.upper, 52)[1:-1]
        before = threading.active_count()
        with np.errstate(over="ignore"):
            stack = closed_loop_matrix(model, deltas[:, None, None])
            finite = np.isfinite(stack).all(axis=(1, 2))
            assert finite[:25].all() and not finite.all()
            criteria._max_real_parts(model, deltas[:25])
            with pytest.raises(np.linalg.LinAlgError):
                verify_interval(model, iv, 50)
        assert threading.active_count() == before


def test_audit_makes_no_thread_at_n8(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("thread started")

    monkeypatch.setattr(criteria, "_cpus", lambda: 2)
    monkeypatch.setattr(threading, "Thread", forbidden)
    # 26 matrices of 8 x 8 per half, the exact interval's probes included,
    # would not run without the GIL
    assert run_analysis(AnalysisConfig()).all_sound


@pytest.mark.parametrize("count, cpus", [(3, 3), (None, 1)])
def test_cpus_without_affinity(monkeypatch, count, cpus):
    # where the platform has no sched_getaffinity, the audit counts every
    # CPU, and takes one where even that count is unknown
    monkeypatch.delattr(criteria.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(criteria.os, "cpu_count", lambda: count)
    assert criteria._cpus() == cpus


def _count_solves_of(H, monkeypatch):
    """A list that gains one entry per np.linalg.eigvals call whose argument,
    a matrix or a stack of them, holds H."""
    eigvals, calls = np.linalg.eigvals, []

    def counted(a):
        stack = np.asarray(a).reshape(-1, *np.shape(a)[-2:])
        if any(m.shape == H.shape and np.array_equal(m, H) for m in stack):
            calls.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return calls


class TestSpectrumSolvedOnce:
    def test_run_analysis_solves_h_once(self, session, monkeypatch):
        # build_mdelta solves it; sample_locus and exact_bounds read M.poles
        calls = _count_solves_of(session.model.H, monkeypatch)
        assert run_analysis(AnalysisConfig()).all_sound
        assert calls == [session.model.H.shape]

    def test_exact_bounds_after_sample_locus_solves_none(self, monkeypatch):
        model = random_rank_one_model(np.random.default_rng(5), n=6)
        sample_locus(model.M, n=50)
        calls = _count_solves_of(model.H, monkeypatch)
        exact_bounds(model)
        assert calls == []


# the exact interval at each stability margin m, as zero exclusion on the line
# Re s = -m of the loop built at margin 0 gives it (M(jw - m) real)
EXACT_AT_MARGIN = {
    0.005: (-11.948123919292684, 0.5065734380496086),
    0.01: (-9.367752985794741, 0.5008704900991972),
    0.016: (-7.416359177868879, 0.402417154958539),
}


class TestStabilityMargin:
    @pytest.mark.parametrize("margin", sorted(EXACT_AT_MARGIN))
    def test_every_interval_inside_exact_and_sound(self, margin, session):
        result = run_analysis(AnalysisConfig(stability_margin=margin))
        assert result.all_sound
        exact = result.intervals["exact"]
        assert (exact.lower, exact.upper) == pytest.approx(EXACT_AT_MARGIN[margin], rel=1e-9)
        assert set(result.intervals) == set(criteria.CRITERIA)
        for iv in result.intervals.values():
            assert exact.lower <= iv.lower < 0 < iv.upper <= exact.upper
            # audited on the loop built at margin 0, one matrix at a time
            for delta in np.linspace(iv.lower, iv.upper, 202)[1:-1]:
                assert max_real_part(session.model, delta) < -margin

    def test_aircraft_table(self):
        intervals = run_analysis(AnalysisConfig(stability_margin=0.01)).intervals
        table = {name: (iv.lower, iv.upper) for name, iv in intervals.items()}
        assert table == {
            "exact": pytest.approx((-9.36775, 0.50087), rel=1e-5),
            "small_gain": pytest.approx((-0.498174, 0.498174), rel=1e-5),
            "circle": pytest.approx((-2.07947, 0.46989), rel=1e-5),
            "positive_real": pytest.approx((-5.44837, 0.499802), rel=1e-5),
            "popov": pytest.approx((-8.70534, 0.50087), rel=1e-5),
        }


def _unit_models():
    """(H, Qcal) of the aircraft and of the first four random 32-state models."""
    session = build_session(AnalysisConfig())
    rng = np.random.default_rng(0)
    randoms = [random_rank_one_model(rng, 32) for _ in range(4)]
    return [(session.model.H, session.model.Qcal)] + [(m.H, m.Qcal) for m in randoms]


class TestUnits:
    # witnesses in the units of M; Popov's slopes are in those of 1/w
    SCALED = ("r_sg", "x_c", "r_c", "x_max", "x_min", "c_plus", "c_minus")

    @pytest.mark.parametrize("index", range(5), ids=["aircraft", *(f"random{k}" for k in range(4))])
    def test_intervals_scale_with_delta(self, index):
        # delta in other units is Qcal scaled by alpha: every interval scales
        # by 1/alpha and every witness in the units of M by alpha, whatever alpha
        H, Qcal = _unit_models()[index]

        def analyze(alpha):
            model = model_of(H, alpha * Qcal)
            # random0 is stable for every delta < 0, and Popov alone of the
            # graphical criteria reads that side unbounded, at every alpha
            with (pytest.warns(UserWarning, match="popov: intercept of the wrong sign")
                  if index == 1 else contextlib.nullcontext()):
                intervals, reports = analyze_model(model, sample_locus(model.M), AnalysisConfig())
            # the exact interval, unbounded sides included, is the guardian map's
            guardian = guardian_exact_bounds(H, alpha * Qcal)
            assert (guardian.lower, guardian.upper) == pytest.approx(
                (intervals["exact"].lower, intervals["exact"].upper), rel=1e-9), alpha
            return intervals, reports

        base = analyze(1.0)[0]
        for alpha in (1e-12, 1e-6, 1e6, 1e12):
            intervals, reports = analyze(alpha)
            for name, iv in intervals.items():
                want = base[name]
                assert iv.lower * alpha == pytest.approx(want.lower, rel=1e-10), (alpha, name)
                assert iv.upper * alpha == pytest.approx(want.upper, rel=1e-10), (alpha, name)
                for key in set(self.SCALED) & set(iv.witnesses):
                    assert iv.witnesses[key] / alpha == pytest.approx(
                        want.witnesses[key], rel=1e-10), (alpha, name, key)
            assert all(r.passed for r in reports.values()), alpha


@pytest.mark.parametrize("settings, message", [
    ({"criteria": ()}, "must be nonempty"),
    ({"criteria": ("exact", "bogus")}, r"unknown criteria: \['bogus'\]"),
    ({"wmin": 0.0}, "frequency window"),
    ({"kalpha": math.nan}, "need finite gains"),
    ({"stability_margin": -0.1}, "stability margin >= 0"),
], ids=["no_criteria", "unknown_criterion", "wmin_zero", "kalpha_nan", "negative_margin"])
def test_config_rejected(settings, message):
    with pytest.raises(ValueError, match=message):
        AnalysisConfig(**settings)


class TestAnalyzeModel:
    @staticmethod
    def direct_calls(model, config):
        """The five criterion calls and the audits, one by one."""
        locus = sample_locus(model.M, wmin=config.wmin, wmax=config.wmax, n=config.npoints)
        intervals = {
            "exact": exact_bounds(model, locus),
            "small_gain": small_gain_bounds(locus),
            "circle": circle_bounds(locus, center="optimal"),
            "positive_real": positive_real_bounds(locus),
            "popov": popov_bounds(locus),
        }
        reports = {name: verify_interval(model, iv, config.n_verify)
                   for name, iv in intervals.items()
                   if not (iv.lower_unbounded or iv.upper_unbounded)}
        return locus, intervals, reports

    @pytest.mark.filterwarnings("ignore:.*intercept of the wrong sign")
    def test_bare_models_match_direct_calls(self):
        rng = np.random.default_rng(0)
        models = [random_rank_one_model(rng, 32) for _ in range(4)]
        models.append(model_of(models[0].H, models[0].Qcal, margin=0.2))
        config = AnalysisConfig()
        unaudited = 0
        for model in models:
            locus, intervals, reports = self.direct_calls(model, config)
            got = analyze_model(model, locus, config)
            assert repr(got) == repr((intervals, reports))
            assert tuple(got[0]) == criteria.CRITERIA
            unaudited += len(got[0]) - len(got[1])
        assert unaudited > 0   # a half-bounded interval gets no report

    def test_rows_call_the_criteria_module_when_run(self, session, monkeypatch):
        # a tracer or a test rebinds a criterion function in criteria itself
        for name in criteria.CRITERIA:
            monkeypatch.setattr(criteria, f"{name}_bounds", lambda *args, name=name: name)
        got = {name: row.bounds(session.model, session.summary)
               for name, row in CRITERION_TABLE.items()}
        assert got == {name: name for name in criteria.CRITERIA}

    def test_selected_criteria_in_table_order(self, session):
        config = AnalysisConfig(criteria=("popov", "exact"), n_verify=5)
        intervals, reports = analyze_model(session.model, session.summary, config)
        assert list(intervals) == list(reports) == ["exact", "popov"]
