import dataclasses

import numpy as np
import pytest

from cgmargin.aircraft import (
    augment_uncertain_plant,
    build_uncertain_plant,
    dimensionalize,
    format_model_text,
    load_default_model,
    load_model_file,
    longitudinal_plant,
    parse_model_text,
)
from cgmargin.errors import ModelFileError, SingularMassMatrixError
from cgmargin.lti import zpk_of_ss

import reference_values as ref
from conftest import uncertain_derivatives


@pytest.fixture(scope="module")
def model():
    return load_default_model()


@pytest.fixture(scope="module")
def dims(model):
    fc, dl = model
    return dimensionalize(fc, dl)


class TestDimensionalize:
    def test_hand_values(self, model, dims):
        # k = rho*S/2 = 30.625 for the bundled data
        assert dims.Xu == pytest.approx(153.125, rel=1e-12)
        assert dims.Zw == pytest.approx(-8575.0, rel=1e-12)
        assert dims.Zwdot == pytest.approx(-122.19375, rel=1e-12)
        assert dims.Mq == pytest.approx(-49750.3125, rel=1e-12)
        assert dims.Meta == pytest.approx(279300.0, rel=1e-12)

    def test_scaling_families(self, model):
        fc, dl = model
        dd = dimensionalize(fc, dl)
        k = 0.5 * fc.rho * fc.S
        assert dd.Zu == pytest.approx(k * fc.V0 * dl.Z_u)
        assert dd.Mwdot == pytest.approx(k * fc.c ** 2 * dl.M_wdot)
        assert dd.Zeta == pytest.approx(k * fc.V0 ** 2 * dl.Z_eta)
        assert dd.Mu == pytest.approx(k * fc.V0 * fc.c * dl.M_u)

    def test_linearity_in_derivatives(self, model):
        fc, dl = model
        doubled = dataclasses.replace(dl, Z_w=2 * dl.Z_w)
        assert dimensionalize(fc, doubled).Zw == pytest.approx(
            2 * dimensionalize(fc, dl).Zw
        )


class TestAssembly:
    def test_mass_matrix_inverse_closed_form(self, model, dims):
        fc, _ = model
        m, Iy, d = fc.m, fc.Iy, dims
        Mass = np.array([[m, -d.Xwdot, 0, 0], [0, m - d.Zwdot, 0, 0], [0, -d.Mwdot, Iy, 0],
                         [0, 0, 0, 1]])
        A_t = np.array([[d.Xu, d.Xw, d.Xq, -m * fc.g], [d.Zu, d.Zw, d.Zq + m * fc.V0, 0],
                        [d.Mu, d.Mw, d.Mq, 0], [0, 0, 1, 0]])
        mz = m - dims.Zwdot
        Minv = np.array(
            [
                [1.0 / m, dims.Xwdot / (m * mz), 0.0, 0.0],
                [0.0, 1.0 / mz, 0.0, 0.0],
                [0.0, dims.Mwdot / (Iy * mz), 1.0 / Iy, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        assert np.allclose(Minv @ Mass, np.eye(4), atol=1e-12)
        A = longitudinal_plant(fc, dims).A
        assert np.allclose(A, Minv @ A_t, rtol=1e-12, atol=1e-12)

    def test_kinematic_row(self, model, dims):
        fc, _ = model
        plant = longitudinal_plant(fc, dims)
        assert np.allclose(plant.A[3], [0, 0, 1, 0])
        assert plant.B[3, 0] == 0.0

    def test_output_rows(self, model, dims):
        fc, _ = model
        plant = longitudinal_plant(fc, dims)
        # states (u, w, q, theta); outputs (theta, q, alpha = w / V0)
        assert np.array_equal(plant.C[:2], [[0, 0, 0, 1], [0, 0, 1, 0]])
        assert np.allclose(plant.C[2], [0, 1.0 / fc.V0, 0, 0])

    def test_singular_mass_matrix_rejected(self, model, dims):
        fc, dl = model
        bad = dataclasses.replace(dims, Zwdot=fc.m + 1.0)
        with pytest.raises(SingularMassMatrixError):
            longitudinal_plant(fc, bad)
        # Zwdot = rho*S*c/2 * Z_wdot = 2m
        bad_dl = dataclasses.replace(dl, Z_wdot=4 * fc.m / (fc.rho * fc.S * fc.c))
        with pytest.raises(SingularMassMatrixError):
            build_uncertain_plant(fc, bad_dl)


class TestInnerLoop:
    def test_closed_loop_matrix(self, model):
        fc, dl = model
        plant = build_uncertain_plant(fc, dl)
        siso = augment_uncertain_plant(plant, 1.6, 1.72).nominal
        p = plant.nominal
        K = np.array([[0.0, 1.6, 1.72]])
        assert np.allclose(siso.A, p.A - p.B @ K @ p.C, atol=1e-12)
        assert siso.noutputs == 1 and np.array_equal(siso.C, p.C[:1])

    def test_zero_gains_identity(self, model):
        fc, dl = model
        plant = build_uncertain_plant(fc, dl)
        siso = augment_uncertain_plant(plant, 0.0, 0.0).nominal
        assert np.allclose(siso.A, plant.nominal.A)

    def test_nominal_transfer_function(self, model):
        """Augmented elevator-to-attitude channel matches the reference zpk."""
        fc, dl = model
        plant = build_uncertain_plant(fc, dl)
        aug = augment_uncertain_plant(plant, 1.6, 1.72)
        zeros, poles, gain = zpk_of_ss(aug.nominal)
        assert ref.rel_err(gain, ref.NOMINAL_GAIN) < 0.02
        for got, want in zip(sorted(z.real for z in zeros), sorted(ref.NOMINAL_ZEROS)):
            assert ref.rel_err(got, want) < 0.02
        real_poles = sorted(p.real for p in poles if abs(p.imag) < 1e-9)
        for got, want in zip(real_poles, sorted(ref.NOMINAL_POLES_REAL)):
            assert ref.rel_err(got, want) < 0.02
        pair = [p for p in poles if p.imag > 1e-9]
        assert len(pair) == 1
        a1, a0 = 2 * abs(pair[0].real), abs(pair[0]) ** 2
        assert ref.rel_err(a1, ref.NOMINAL_POLE_PAIR_COEFFS[1]) < 0.02
        assert ref.rel_err(a0, ref.NOMINAL_POLE_PAIR_COEFFS[2]) < 0.02


class TestPerturbation:
    def test_structure(self, model, dims):
        fc, dl = model
        plant = build_uncertain_plant(fc, dl)
        Q_A, Q_B = plant.Q_A, plant.Q_B
        mu = fc.m / (fc.Iy * (fc.m - dims.Zwdot))
        assert Q_B[2, 0] == pytest.approx(-mu * dims.Zeta, rel=1e-12)
        nz_rows = np.nonzero(np.any(Q_A != 0, axis=1))[0]
        assert nz_rows.tolist() == [2]
        assert np.nonzero(Q_B[:, 0])[0].tolist() == [2]
        assert Q_A[2, 3] == 0.0

    def test_affine_form_exact(self, model, dims):
        """A + delta*Q_A, B + delta*Q_B equals a full rebuild from the
        shifted derivatives, to rounding error (the delta-dependence of
        the mass matrix cancels identically)."""
        fc, dl = model
        uncertain = build_uncertain_plant(fc, dl)
        plant, Q_A, Q_B = uncertain.nominal, uncertain.Q_A, uncertain.Q_B
        scale_A = np.abs(plant.A).max()
        scale_B = np.abs(plant.B).max()
        for delta in (-16.0, -1.0, -0.1, 0.3, 0.51, 5.0):
            rebuilt = longitudinal_plant(fc, uncertain_derivatives(dims, delta))
            assert np.allclose(
                rebuilt.A, plant.A + delta * Q_A, atol=1e-9 * scale_A
            )
            assert np.allclose(
                rebuilt.B, plant.B + delta * Q_B, atol=1e-9 * scale_B
            )

    def test_augmented_mapping(self, model):
        """Mapping Q_A through the inner loop equals perturbing first and
        closing the loop afterwards."""
        fc, dl = model
        plant = build_uncertain_plant(fc, dl)
        aug = augment_uncertain_plant(plant, 1.6, 1.72)
        dims = dimensionalize(fc, dl)
        K = np.array([[0.0, 1.6, 1.72]])
        for delta in (-2.0, 0.4):
            p = longitudinal_plant(fc, uncertain_derivatives(dims, delta))
            closed_A = p.A - p.B @ K @ p.C
            assert np.allclose(
                closed_A,
                aug.nominal.A + delta * aug.Q_A,
                atol=1e-8 * np.abs(closed_A).max(),
            )

    def test_zero_shift_is_nominal(self, dims):
        assert uncertain_derivatives(dims, 0.0) == dims


class TestModelFiles:
    def test_default_model_values(self, model):
        fc, dl = model
        assert fc.V0 == 100.0 and fc.m == 12500.0 and fc.Iy == 105592.0
        assert fc.rho == 1.225 and fc.S == 50.0 and fc.c == 5.7
        assert dl.Z_wdot == -0.7 and dl.M_eta == 0.16 and dl.X_q == 0.0

    def test_round_trip(self, model, tmp_path):
        fc, dl = model
        path = tmp_path / "echo.cfg"
        path.write_text(format_model_text(fc, dl))
        fc2, dl2 = load_model_file(path)
        assert fc2 == fc
        assert dl2 == dl

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFileError, match="cannot read"):
            load_model_file(tmp_path / "nope.cfg")

    def test_unknown_field(self):
        with pytest.raises(ModelFileError, match="unknown field 'bogus'"):
            parse_model_text("bogus = 1.0\n", source="f")

    def test_duplicate_field(self):
        with pytest.raises(ModelFileError, match="f:3: duplicate field 'V0'"):
            parse_model_text("V0 = 1\n\nV0 = 2\n", source="f")

    def test_non_numeric(self):
        with pytest.raises(ModelFileError, match="non-numeric"):
            parse_model_text("V0 = fast\n", source="f")

    def test_missing_required(self):
        with pytest.raises(ModelFileError, match="missing required"):
            parse_model_text("V0 = 100.0\n", source="f")

    def test_malformed_line(self):
        with pytest.raises(ModelFileError, match="expected 'name = value'"):
            parse_model_text("just words\n", source="f")

    def test_comments_and_blanks_ignored(self, model):
        fc, dl = model
        text = format_model_text(fc, dl) + "\n# trailing comment\n\n"
        fc2, dl2 = parse_model_text(text)
        assert fc2 == fc and dl2 == dl

    def test_nonpositive_flight_condition_rejected(self, model):
        fc, dl = model
        text = format_model_text(fc, dl).replace("m = 12500.0", "m = -1.0")
        with pytest.raises(ValueError, match="must be positive"):
            parse_model_text(text)
