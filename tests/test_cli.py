import dataclasses
import hashlib
import re

import numpy as np
import pytest
from click.testing import CliRunner

from cgmargin import criteria, pipeline, svgplot
from cgmargin.aircraft import default_model_path, load_default_model, load_model_file
from cgmargin.cli import ALIASES, FIGURE_CRITERIA, FIGURES, main
from cgmargin.criteria import CRITERIA
from cgmargin.lti import zpk_of_ss
from cgmargin.pipeline import parse_report_csv

REPORT_HEADER = "criterion,lower,upper,lower_unbounded,upper_unbounded,stability_margin,witnesses\n"
# criterion -> real-axis intercepts (positive, negative) from its witnesses
INTERCEPTS = {
    "small_gain": lambda w: (w["r_sg"], -w["r_sg"]),
    "circle": lambda w: (w["x_c"] + w["r_c"], w["x_c"] - w["r_c"]),
    "positive_real": lambda w: (w["x_max"], w["x_min"]),
    "popov": lambda w: (w["c_plus"], w["c_minus"]),
}


@pytest.fixture()
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


class TestModelCommand:
    def test_dump_and_echo(self, runner, tmp_path):
        out = tmp_path / "out"
        result = run_ok(runner, ["model", "--out", str(out)])
        assert "A_augmented" in result.output
        assert "eta_to_theta zpk:" in result.output
        assert (out / "model_dump.txt").exists()
        fc, dl = load_model_file(out / "model_echo.cfg")
        fc0, dl0 = load_default_model()
        assert fc == fc0 and dl == dl0

    @pytest.mark.parametrize("margin, digest", [
        (0.0, "ce5c50121ac77e396770c332bbb93bab9d5900fba02412f9e65ebd5e80c5ac5a"),
        (0.01, "a50ea3ce92705119f12900ff973294ee72f2812f2f355736122d6428b2a25319"),
    ], ids=["no_margin", "margin"])
    def test_golden_dump(self, margin, digest):
        session = pipeline.build_session(pipeline.AnalysisConfig(stability_margin=margin))
        dump = pipeline.format_model_dump(session)
        assert hashlib.sha256(dump.encode()).hexdigest() == digest

    def test_zpk_without_zeros(self):
        # the dump prints an empty root list as (none), and a complex root
        # with its imaginary part
        text = pipeline.format_zpk([], [-1.0, complex(-2, 3), complex(-2, -3)], 2.0)
        assert text == "  gain : 2\n  zeros: (none)\n  poles: -1, -2+3j, -2-3j"

    def test_missing_model_file(self, runner, tmp_path):
        result = runner.invoke(main, ["model", "--model", str(tmp_path / "x.cfg")])
        assert result.exit_code != 0

    def test_trim_angles_refused(self, runner, tmp_path):
        # the equations take no trim angles: a file that names one is refused,
        # not read as a no-op
        text = default_model_path().read_text()
        path = tmp_path / "climb.cfg"
        path.write_text(text + "gamma_e = 0.3\nalpha_e = 0.2\n")
        lineno = len(text.splitlines()) + 1
        result = runner.invoke(main, ["model", "--model", str(path), "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert result.output == f"Error: {path}:{lineno}: unknown field 'gamma_e'\n"

    @pytest.mark.parametrize("args, message", [
        (["analyze", "--kq", "nan"], "need finite gains"),
        (["analyze", "--kq", "inf"], "need finite gains"),
        (["model", "--kalpha", "inf"], "need finite gains"),
        (["analyze", "--controller-poles", "nan,-1,-2,-3"], "zeros and poles must be finite"),
        (["analyze", "--controller-zeros", "nan"], "zeros and poles must be finite"),
        (["analyze", "--wmin", "nan"], "frequency window"),
        (["analyze", "--wmax", "inf"], "frequency window"),
        # finite, but H or Qcal overflows: LinAlgError and SVD tracebacks
        (["analyze", "--kq", "1e308"], "H has an entry that is not finite"),
        (["model", "--controller-gain", "1e308"], "H has an entry that is not finite"),
    ], ids=["kq_nan", "kq_inf", "kalpha_inf", "pole_nan", "zero_nan", "wmin_nan", "wmax_inf",
            "kq_overflow", "gain_overflow"])
    def test_nonfinite_input_is_one_error_line(self, runner, tmp_path, args, message):
        result = runner.invoke(main, [*args, "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)   # no traceback
        [line] = result.output.splitlines()
        assert line.startswith("Error: ") and message in line
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["analyze", "model"])
    @pytest.mark.parametrize("field, value", [
        ("V0", "nan"), ("Z_w", "nan"), ("M_q", "inf"), ("m", "-1.0"),
    ])
    def test_bad_model_value_is_one_error_line(self, runner, tmp_path, command, field, value):
        # each was a traceback: LinAlgError from the non-finite values, an
        # uncaught ValueError from the negative mass
        lines = default_model_path().read_text().splitlines()
        [lineno] = [i for i, line in enumerate(lines) if line.split("=")[0].strip() == field]
        lines[lineno] = f"{field} = {value}"
        path = tmp_path / "bad.cfg"
        path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, [command, "--model", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)   # no traceback
        [line] = result.output.splitlines()
        assert line.startswith(f"Error: {path}") and field in line
        if value != "-1.0":
            assert line.startswith(f"Error: {path}:{lineno + 1}: field {field!r}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, field, value, matrix", [
        pytest.param(command, field, value, matrix, id=command if field == "Iy" else f"{field}-{command}")
        for field, value, matrix in [("Iy", "1e-320", "H"), ("V0", "1e300", "H"), ("c", "1e300", "the mass matrix")]
        for command in ("analyze", "model")
    ])
    def test_overflowing_model_value_is_one_error_line(self, runner, tmp_path, command, field, value, matrix):
        # each value is finite and positive, but the model built on it
        # overflows: Iy = 1e-320 ended in an "SVD did not converge"
        # traceback, V0 = 1e300 and c = 1e300 in an OverflowError from their
        # squares, and c = 1e300 then in a LinAlgError from solving with a
        # mass matrix that holds inf
        text = re.sub(rf"(?m)^{field} = .*$", f"{field} = {value}", default_model_path().read_text())
        path = tmp_path / "overflow.cfg"
        path.write_text(text)
        result = runner.invoke(main, [command, "--model", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)   # no traceback
        assert result.output == f"Error: {matrix} has an entry that is not finite: an input overflowed\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [
        ["analyze", "--npoints"], ["analyze", "--n-verify"], ["verify", "--n-samples"],
        ["model", "--npoints"], ["plot", "popov", "--npoints"],
    ], ids=["analyze-npoints", "analyze-n_verify", "verify-n_samples", "model-npoints", "plot-npoints"])
    def test_request_too_large_is_one_error_line(self, runner, tmp_path, args):
        # 1e15 float64s are 7.11 PiB, which numpy refuses before it allocates
        # anything: each ended in an _ArrayMemoryError traceback
        result = runner.invoke(main, [*args, "1000000000000000", "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)   # no traceback
        [line] = result.output.splitlines()
        assert line.startswith("Error: Unable to allocate ")
        assert not (tmp_path / "out").exists()

    def test_window_whose_response_overflows_is_one_error_line(self, runner, tmp_path):
        # wmax = 1e307 is finite, but M(jw) overflows there: four
        # RuntimeWarnings came before the error, a traceback where they are
        # errors, as in this suite
        result = runner.invoke(main, ["analyze", "--wmax", "1e307", "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)   # no traceback
        assert result.output == "Error: locus contains non-finite samples\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["analyze"], ["model"], ["plot", "popov"], ["verify"]])
    def test_model_file_not_utf8_is_one_error_line(self, runner, tmp_path, command):
        # the UnicodeDecodeError of reading it ended in a traceback
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"V0 = 1\xff\n")
        result = runner.invoke(main, [*command, "--model", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)   # no traceback
        [line] = result.output.splitlines()
        assert line.startswith(f"Error: cannot read model file {path}: ")
        assert not (tmp_path / "out").exists()

    def test_bad_frequency_window(self, runner, tmp_path):
        result = runner.invoke(
            main, ["model", "--wmin", "10", "--wmax", "1", "--out", str(tmp_path)]
        )
        assert result.exit_code != 0
        assert "frequency window" in result.output


class TestAnalyzeCommand:
    def test_full_table(self, runner, tmp_path):
        out = tmp_path / "out"
        result = run_ok(runner, ["analyze", "--out", str(out)])
        lines = [ln for ln in result.output.splitlines() if ln]
        labels = [ln.split()[0] for ln in lines if ln and not ln.startswith("-")]
        order = [l for l in labels if l in
                 ("Exact", "Small", "Circle", "Positive", "Popov")]
        assert order == ["Exact", "Small", "Circle", "Positive", "Popov"]
        assert (out / "report.txt").exists()
        intervals = parse_report_csv((out / "report.csv").read_text())
        assert set(intervals) == {
            "exact", "small_gain", "circle", "positive_real", "popov"
        }
        for iv in intervals.values():
            assert iv.lower < 0 < iv.upper
        assert "verify exact: ok" in result.output

    def test_failed_audit_exits_1(self, runner, tmp_path, monkeypatch):
        # an audit that fails is printed as FAILED and makes analyze exit 1,
        # after the report is written; the others still print ok
        audit = criteria.verify_interval

        def failing(model, interval, n_samples):
            report = audit(model, interval, n_samples)
            if interval.criterion == "circle":
                report = dataclasses.replace(report, passed=False, failures=((0.1, 1e-3),))
            return report

        monkeypatch.setattr(criteria, "verify_interval", failing)
        result = runner.invoke(main, ["analyze", "--out", str(tmp_path)], catch_exceptions=False)
        assert result.exit_code == 1
        verdicts = [ln for ln in result.output.splitlines() if ln.startswith("verify ")]
        assert verdicts == [f"verify {name}: {'FAILED' if name == 'circle' else 'ok'} (50 interior samples)"
                            for name in CRITERIA]
        assert set(parse_report_csv((tmp_path / "report.csv").read_text())) == set(CRITERIA)

    def test_report_witnesses_parse(self, runner, tmp_path, result):
        # every numeric witness is written as a Python float's repr, never
        # as np.float64(...)
        out = tmp_path / "out"
        run_ok(runner, ["analyze", "--out", str(out)])
        rows = (out / "report.csv").read_text().splitlines()[1:]
        for row in rows:
            criterion, *_, witnesses = row.split(",")
            written = dict(item.split("=") for item in witnesses.split(";"))
            for key, value in result.intervals[criterion].witnesses.items():
                if isinstance(value, tuple):
                    assert tuple(map(float, written[key][1:-1].split())) == value
                elif isinstance(value, float):
                    assert float(written[key]) == value

    def test_criteria_subset_and_aliases(self, runner, tmp_path):
        out = tmp_path / "out"
        run_ok(runner, ["analyze", "--criteria", "smallgain,posreal",
                        "--out", str(out)])
        intervals = parse_report_csv((out / "report.csv").read_text())
        assert set(intervals) == {"small_gain", "positive_real"}

    def test_unknown_criterion(self, runner, tmp_path):
        # the error names the tokens as given: a short name maps only whole
        for given, unknown in [("bogus", ["bogus"]),
                               ("nyquist_smallgain,posreal_x", ["nyquist_smallgain", "posreal_x"])]:
            result = runner.invoke(
                main, ["analyze", "--criteria", given, "--out", str(tmp_path)]
            )
            assert result.exit_code != 0
            assert f"unknown criteria: {unknown}" in result.output

    def test_table_names_every_criterion_once(self):
        assert tuple(pipeline.CRITERION_TABLE) == CRITERIA
        assert set(FIGURE_CRITERIA.values()) <= set(CRITERIA)
        assert set(ALIASES.values()) <= set(CRITERIA)
        assert ALIASES["smallgain"] == "small_gain" and ALIASES["posreal"] == "positive_real"
        for figure, criterion in FIGURE_CRITERIA.items():
            assert pipeline.CRITERION_TABLE[criterion].figure == figure

    @pytest.mark.parametrize("option, value", [
        ("--controller-zeros", "1,x"), ("--controller-poles", "-1,,2j-"),
    ], ids=["zeros", "poles"])
    def test_malformed_roots_rejected(self, runner, tmp_path, option, value):
        result = runner.invoke(main, ["analyze", option, value, "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert f"Invalid value for '{option}': expected comma-separated numbers" in result.output
        assert not any(tmp_path.iterdir())

    def test_unstable_nominal_aborts(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["analyze", "--kq", "0", "--kalpha", "0", "--out", str(tmp_path)],
        )
        assert result.exit_code != 0
        assert "unstable" in result.output

    @pytest.mark.parametrize("args, zeros, poles", [
        (["--controller-zeros", "", "--controller-poles", "-1"], (), (-1 + 0j,)),
        (["--controller-zeros", "", "--controller-poles", ""], (), ()),
    ], ids=["no_zeros", "static_gain"])
    def test_empty_controller_roots_kept(self, runner, tmp_path, monkeypatch, args, zeros, poles):
        sessions = []
        build = pipeline.build_session

        def recorded(config):
            sessions.append(build(config))
            return sessions[-1]

        monkeypatch.setattr(pipeline, "build_session", recorded)
        run_ok(runner, ["model", *args, "--controller-gain", "1", "--out", str(tmp_path)])
        [session] = sessions
        got_zeros, got_poles, gain = zpk_of_ss(session.controller)
        assert (tuple(got_zeros), tuple(got_poles), gain) == (zeros, poles, 1.0)


class TestPlotCommand:
    @pytest.mark.parametrize("figure", FIGURES)
    def test_outputs_exist(self, runner, tmp_path, figure):
        out = tmp_path / "out"
        run_ok(runner, ["plot", figure, "--out", str(out)])
        csv_path = out / f"locus_{figure}.csv"
        svg_path = out / f"fig_{figure}.svg"
        assert csv_path.exists() and svg_path.exists()
        rows = svgplot.csv_to_rows(csv_path.read_text())
        kinds = {k for k, *_ in rows}
        assert "sample" in kinds and "marker" in kinds
        assert svg_path.read_text().startswith("<svg ")

    def test_deterministic_output(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_ok(runner, ["plot", "popov", "--out", str(a)])
        run_ok(runner, ["plot", "popov", "--out", str(b)])
        assert (a / "locus_popov.csv").read_bytes() == (b / "locus_popov.csv").read_bytes()
        assert (a / "fig_popov.svg").read_bytes() == (b / "fig_popov.svg").read_bytes()

    def test_svg_rebuilds_from_csv(self, runner, tmp_path):
        out = tmp_path / "out"
        run_ok(runner, ["plot", "nyquist_circle", "--out", str(out)])
        rows = svgplot.csv_to_rows((out / "locus_nyquist_circle.csv").read_text())
        rebuilt = svgplot.render_svg(
            rows, "Circle criterion", "Re M(jω)", "Im M(jω)", equal_aspect=True
        )
        assert rebuilt == (out / "fig_nyquist_circle.svg").read_text()

    def test_popov_rows_carry_lines(self, runner, tmp_path):
        out = tmp_path / "out"
        run_ok(runner, ["plot", "popov", "--format", "csv", "--out", str(out)])
        rows = svgplot.csv_to_rows((out / "locus_popov.csv").read_text())
        lines = [r for r in rows if r[0] == "line"]
        assert len(lines) == 2
        assert not (out / "fig_popov.svg").exists()

    @pytest.mark.filterwarnings("ignore:.*intercept of the wrong sign", "error::RuntimeWarning")
    def test_real_axis_lines_have_no_row(self, runner, tmp_path):
        # below the crossings, at --wmax 0.01, w Im M keeps one sign: both
        # Popov lines are the real axis (q = +-inf), which the axes draw.
        # The CSV holds their two markers and no line row, every value
        # finite, and the figure renders with no RuntimeWarning
        run_ok(runner, ["plot", "popov", "--wmax", "0.01", "--out", str(tmp_path)])
        text = (tmp_path / "locus_popov.csv").read_text()
        rows = svgplot.csv_to_rows(text)
        assert [k for k, *_ in rows if k != "sample"] == ["marker", "marker"]
        assert np.isfinite([r[1:] for r in rows]).all() and "inf" not in text
        assert (tmp_path / "fig_popov.svg").read_text().endswith("</svg>\n")

    def test_posreal_rows_are_lines_of_slope_0(self, runner, tmp_path, result):
        run_ok(runner, ["plot", "nyquist_posreal", "--format", "csv", "--out", str(tmp_path)])
        rows = svgplot.csv_to_rows((tmp_path / "locus_nyquist_posreal.csv").read_text())
        w = result.intervals["positive_real"].witnesses
        assert [r for r in rows if r[0] not in ("sample", "marker")] == [
            ("line", 0.0, w["x_max"], 0.0), ("line", 0.0, w["x_min"], 0.0)
        ]

    @pytest.mark.parametrize("figure", FIGURES)
    def test_markers_are_report_intercepts(self, runner, tmp_path, session, figure):
        # the plot draws the interval analyze reports: its markers are the
        # real-axis intercepts that report.csv's witnesses give
        run_ok(runner, ["analyze", "--out", str(tmp_path)])
        run_ok(runner, ["plot", figure, "--format", "csv", "--out", str(tmp_path)])
        criterion = FIGURE_CRITERIA[figure]
        [row] = [r for r in (tmp_path / "report.csv").read_text().splitlines()
                 if r.startswith(criterion + ",")]
        w = {k: float(v) for k, v in (item.split("=") for item in row.split(",")[-1].split(";"))}
        intercepts = INTERCEPTS[criterion](w)
        rows = svgplot.csv_to_rows((tmp_path / f"locus_{figure}.csv").read_text())
        assert [(a, b, c) for k, a, b, c in rows if k == "marker"] == [
            (x, 0.0, 0.0) for x in intercepts
        ]
        if figure == "popov":
            s = session.summary
            samples = np.array([(a, c) for k, a, b, c in rows if k == "sample"])
            assert np.array_equal(samples[:, 0], s.omegas)
            assert np.array_equal(samples[:, 1], s.omegas * s.values.imag)

    def test_circle_geometry_matches_samples(self, runner, tmp_path):
        out = tmp_path / "out"
        run_ok(runner, ["plot", "nyquist_smallgain", "--format", "csv",
                        "--out", str(out)])
        rows = svgplot.csv_to_rows((out / "locus_nyquist_smallgain.csv").read_text())
        samples = np.array([(b, c) for k, a, b, c in rows if k == "sample"])
        (circle,) = [r for r in rows if r[0] == "circle"]
        _, xc, r, _ = circle
        assert xc == 0.0
        d = np.hypot(samples[:, 0] - xc, samples[:, 1])
        assert d.max() <= r * (1 + 1e-9)


class TestRender:
    # one row of every kind; a slope of nan stands for a line that misses the
    # window, since every finite line crosses the real axis inside it
    ROWS = [("sample", *np.array(row)) for row in
            [(0.1, 1.0, -0.25), (0.5, 0.4, -0.9), (2.0, -0.6, -0.7), (8.0, -1.1, 0.2)]]
    ROWS += [("circle", -0.3, 1.1, 0.0), ("line", 0.0, 0.75, 0.0), ("line", 0.4, -1.2, 0.0),
             ("line", float("nan"), 0.5, 0.0), ("marker", 0.8, 0.0, 0.0), ("marker", -1.4, 0.0, 0.0)]

    @pytest.mark.parametrize("equal_aspect, digest", [
        (True, "7e0ac03346d4753e4f7088c0fab2be54080658c8e1e6462fd62dc03d3748b683"),
        (False, "3b6cd54c3238baaf0ffc19ae36258bb0adf8fbdafae7b50668a960ae35a83c94"),
    ], ids=["equal_aspect", "free_aspect"])
    def test_golden_svg(self, equal_aspect, digest):
        svg = svgplot.render_svg(self.ROWS, "Golden", "x", "y", equal_aspect=equal_aspect)
        circle = "<circle " if equal_aspect else "<ellipse "
        for element in ("<polyline ", circle, "<line x1=", "<!-- line outside window -->",
                        "<path d=", "</svg>"):
            assert element in svg
        assert hashlib.sha256(svg.encode()).hexdigest() == digest

    @pytest.mark.parametrize("equal_aspect", [True, False], ids=["equal_aspect", "free_aspect"])
    def test_circle_radii_follow_axis_scales(self, equal_aspect):
        # a circle row of radius b is b * sx px wide and b * sy px tall
        svg = svgplot.render_svg(self.ROWS, "Golden", "x", "y", equal_aspect=equal_aspect)
        m = svgplot._Mapper([r[2] for r in self.ROWS[:4]], [r[3] for r in self.ROWS[:4]],
                            self.ROWS[4:], equal_aspect)
        [shape] = re.findall(r"<(?:circle|ellipse) [^>]*>", svg)
        attrs = {k: float(v) for k, v in re.findall(r'(r|rx|ry)="([^"]+)"', shape)}
        rx, ry = attrs.get("rx", attrs.get("r")), attrs.get("ry", attrs.get("r"))
        b = self.ROWS[4][2]
        assert (rx, ry) == (round(b * m.sx, 2), round(b * m.sy, 2))

    @pytest.mark.parametrize("corner", ["y0", "y1"])
    def test_line_through_left_corner(self, corner):
        """A line through a left corner of the window is drawn across it, not
        as a point: two of its edge crossings are that corner, apart by rounding."""
        xs, ys = [-1.0, 0.5, 2.0], [-1.0, 0.3, 1.5]
        samples = [("sample", 0.0, x, y) for x, y in zip(xs, ys)]
        drawn = re.compile(r'<line x1="([^"]+)" y1="([^"]+)" x2="([^"]+)" y2="([^"]+)" '
                           + re.escape(svgplot.DASHED))
        for c in np.linspace(-0.9, 1.9, 200):   # intercepts inside the samples' x range
            m = svgplot._Mapper(list(xs), list(ys), [("line", 0.0, c, 0.0)], False)
            line = ("line", (m.x0 - c) / getattr(m, corner), c, 0.0)
            svg = svgplot.render_svg(samples + [line], "Corner", "x", "y", equal_aspect=False)
            [ends] = drawn.findall(svg)
            assert ends[:2] != ends[2:], c

    def test_csv_round_trip(self):
        rows = svgplot.csv_to_rows(svgplot.rows_to_csv(self.ROWS))
        assert all(type(v) is float for row in rows for v in row[1:])
        np.testing.assert_array_equal([row[1:] for row in rows], [row[1:] for row in self.ROWS])
        assert [row[0] for row in rows] == [row[0] for row in self.ROWS]
        assert svgplot.render_svg(rows, "Golden", "x", "y") == svgplot.render_svg(
            self.ROWS, "Golden", "x", "y")


class TestVerifyCommand:
    @pytest.mark.parametrize("command, option", [("verify", "--n-samples"), ("analyze", "--n-verify")])
    def test_negative_sample_count_rejected(self, runner, tmp_path, command, option):
        result = runner.invoke(main, [command, option, "-1", "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert f"Invalid value for '{option}': -1 is not in the range x>=0." in result.output
        assert not any(tmp_path.iterdir())

    def test_default_passes(self, runner, tmp_path):
        result = run_ok(runner, ["verify", "--n-samples", "20",
                                 "--out", str(tmp_path)])
        assert result.output.count("PASS") == 5
        assert "FAIL" not in result.output

    @pytest.mark.parametrize("from_report", [False, True], ids=["computed", "results"])
    def test_audits_each_interval_once(self, runner, tmp_path, monkeypatch, from_report):
        args = ["verify", "--n-samples", "20", "--out", str(tmp_path)]
        if from_report:
            run_ok(runner, ["analyze", "--out", str(tmp_path)])
            args += ["--results", str(tmp_path / "report.csv")]
        calls = []
        audit = criteria.verify_interval

        def counted(model, interval, n_samples):
            calls.append((interval.criterion, n_samples))
            return audit(model, interval, n_samples)

        monkeypatch.setattr(criteria, "verify_interval", counted)
        result = run_ok(runner, args)
        assert sorted(calls) == sorted((name, 20) for name in CRITERIA)
        assert result.output.splitlines() == [f"{name:<14} PASS (20 samples)" for name in CRITERIA]

    def test_tampered_results_fail(self, runner, tmp_path):
        out = tmp_path / "out"
        run_ok(runner, ["analyze", "--criteria", "exact", "--out", str(out)])
        csv_path = out / "report.csv"
        text = csv_path.read_text()
        header, row = [ln for ln in text.splitlines() if ln]
        fields = row.split(",")
        fields[2] = "1.0"   # inflate the upper bound past the exact one
        csv_path.write_text(header + "\n" + ",".join(fields) + "\n")
        result = runner.invoke(
            main, ["verify", "--results", str(csv_path), "--out", str(tmp_path)]
        )
        assert result.exit_code == 1
        assert "exact" in result.output and "FAIL" in result.output
        assert "first failure at delta=" in result.output

    def test_crossing_inside_is_named(self, runner, tmp_path):
        # every sample of (-16.46, 0.5) is stable; the exact lower bound is not
        csv_path = tmp_path / "report.csv"
        csv_path.write_text(REPORT_HEADER + "popov,-16.46,0.5,0,0,0.0,\n")
        result = runner.invoke(
            main, ["verify", "--results", str(csv_path), "--out", str(tmp_path)]
        )
        assert result.exit_code == 1
        assert "popov          FAIL" in result.output
        assert "boundary crossing inside at delta=-16.3939 (w=0.0209409)" in result.output
        assert "first failure" not in result.output

    def test_zero_lower_bound_probed_below(self, runner, tmp_path):
        # a lower bound of 0 is not marginal: the loop is stable there, and
        # the exact lower bound is -16.39
        csv_path = tmp_path / "report.csv"
        csv_path.write_text(REPORT_HEADER + "exact,0,0.5123037430,0,0,0.0,\n")
        result = runner.invoke(
            main, ["verify", "--results", str(csv_path), "--out", str(tmp_path)]
        )
        assert result.exit_code == 1
        assert "first failure at delta=0 (" in result.output

    def test_skips_unbounded_rows(self, runner, tmp_path):
        csv_path = tmp_path / "report.csv"
        csv_path.write_text(REPORT_HEADER + "popov,-inf,0.5,1,0,0.0,\n")
        result = run_ok(
            runner, ["verify", "--results", str(csv_path), "--out", str(tmp_path)]
        )
        assert "SKIP" in result.output

    @pytest.mark.parametrize("row, line", [
        ("popov,-inf,0.5,0,0,0.0,", "popov          SKIP (unbounded side)"),
        ("popov,-11.5,0.5,1,0,0.0,", "popov          PASS (100 samples)"),
    ], ids=["infinite_bound", "finite_bounds"])
    def test_unbounded_read_off_the_bounds(self, runner, tmp_path, row, line):
        # the flag columns are not read: a side is unbounded exactly when its
        # bound is infinite
        csv_path = tmp_path / "report.csv"
        csv_path.write_text(REPORT_HEADER + row + "\n")
        result = run_ok(runner, ["verify", "--results", str(csv_path), "--out", str(tmp_path)])
        assert result.output.splitlines() == [line]

    def test_malformed_report_is_one_error_line(self, runner, tmp_path):
        csv_path = tmp_path / "report.csv"
        csv_path.write_text(REPORT_HEADER + "exact,-16.39,x,0,0,0.0,\n")
        result = runner.invoke(main, ["verify", "--results", str(csv_path), "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)   # no traceback
        assert result.output == (
            f"Error: {csv_path}: line 2 has no numeric lower and upper bound: "
            "'exact,-16.39,x,0,0,0.0,'\n"
        )

    @pytest.mark.parametrize("text", ["", REPORT_HEADER, REPORT_HEADER + "\n"],
                             ids=["empty", "header_only", "header_and_blank_line"])
    def test_report_without_rows_is_one_error_line(self, runner, tmp_path, text):
        # it has no margin to mismatch: the error names what it lacks
        csv_path = tmp_path / "report.csv"
        csv_path.write_text(text)
        result = runner.invoke(main, ["verify", "--results", str(csv_path), "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)   # no traceback
        assert result.output == f"Error: {csv_path}: the report holds no interval rows\n"

    @pytest.mark.parametrize("rows, error", [
        # criterion names are lower case
        ("Popov,-100,100,0,0,0.0,\n",
         f"line 2 names no criterion of {', '.join(CRITERIA)}: 'Popov,-100,100,0,0,0.0,'"),
        # the inflated first row would be replaced by the second
        ("exact,-16.39,1.0,0,0,0.0,\nexact,-16.39,0.5123,0,0,0.0,\n",
         "line 3 repeats criterion exact: 'exact,-16.39,0.5123,0,0,0.0,'"),
    ], ids=["no_criterion", "repeated_criterion"])
    def test_row_left_unaudited_is_one_error_line(self, runner, tmp_path, rows, error):
        csv_path = tmp_path / "report.csv"
        csv_path.write_text(REPORT_HEADER + rows)
        result = runner.invoke(main, ["verify", "--results", str(csv_path), "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)   # no traceback
        assert result.output == f"Error: {csv_path}: {error}\n"

    @pytest.mark.parametrize("row", ["popov,1,-1,0,0,0.0,", "exact,0.5,0.5,0,0,0.0,"],
                             ids=["reversed", "single_point"])
    def test_empty_interval_is_one_error_line(self, runner, tmp_path, row):
        # no delta lies strictly inside: an audit would pass on no sample
        csv_path = tmp_path / "report.csv"
        csv_path.write_text(REPORT_HEADER + row + "\n")
        result = runner.invoke(main, ["verify", "--results", str(csv_path), "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)   # no traceback
        assert result.output == (
            f"Error: {csv_path}: line 2 has a lower bound not below its upper bound: {row!r}\n"
        )

    @pytest.mark.parametrize("rows", [
        "exact,-16.39,0.5123,0,0,0.0,\npopov,-11.5,0.5,0,0,0.0,\n",
        "\nexact,-16.39,0.5123,0,0,0.0,\n",
    ], ids=["two_rows", "one_row_after_a_blank_line"])
    def test_headerless_report_refused(self, runner, tmp_path, rows):
        # the first nonblank line was taken as the header unchecked: two
        # header-less rows were read as one without a stability margin, and
        # one row as a report without rows
        csv_path = tmp_path / "report.csv"
        csv_path.write_text(rows)
        result = runner.invoke(main, ["verify", "--results", str(csv_path), "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)   # no traceback
        lineno, line = [(i, ln) for i, ln in enumerate(rows.splitlines(), start=1) if ln][0]
        assert result.output == (
            f"Error: {csv_path}: line {lineno} is not a header starting criterion,lower,upper: "
            f"{line!r}\n"
        )

    def test_first_faulty_line_is_named(self, runner, tmp_path):
        # the rows are read in one pass, so an earlier row's fault wins over
        # a later row's margin
        csv_path = tmp_path / "report.csv"
        csv_path.write_text(REPORT_HEADER + "Popov,-100,100,0,0,0.0,\nexact,-16.39,0.5123,0,0,0.01,\n")
        result = runner.invoke(main, ["verify", "--results", str(csv_path), "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert result.output == (
            f"Error: {csv_path}: line 2 names no criterion of {', '.join(CRITERIA)}: "
            "'Popov,-100,100,0,0,0.0,'\n"
        )


class TestStabilityMargin:
    def test_readme_example_and_its_audit_pass(self, runner, tmp_path):
        out = tmp_path / "out"
        result = run_ok(runner, ["analyze", "--criteria", "exact,popov",
                                 "--stability-margin", "0.01", "--out", str(out)])
        assert result.output.count(": ok (50 interior samples)") == 2
        result = run_ok(runner, ["verify", "--results", str(out / "report.csv"),
                                 "--stability-margin", "0.01", "--out", str(tmp_path)])
        assert result.output.splitlines() == [
            f"{name:<14} PASS (100 samples)" for name in ("exact", "popov")
        ]

    @pytest.mark.parametrize("recorded, margin", [("0.01", "0.01"), ("0.01", "0"), ("0", "0.01")],
                             ids=["same", "report_above", "report_below"])
    def test_results_read_at_their_own_margin(self, runner, tmp_path, recorded, margin):
        # the exact row of a report written at m = 0.01 fails at m = 0 (the
        # loop at delta = -9.37712 is stable), so verify refuses to read it there
        out = tmp_path / "out"
        run_ok(runner, ["analyze", "--criteria", "exact", "--stability-margin", recorded,
                        "--out", str(out)])
        result = runner.invoke(main, ["verify", "--results", str(out / "report.csv"),
                                      "--stability-margin", margin, "--out", str(tmp_path)])
        if recorded == margin:
            assert result.exit_code == 0
            assert result.output == "exact          PASS (100 samples)\n"
        else:
            assert result.exit_code == 1
            assert result.output == (
                f"Error: {out / 'report.csv'} records stability margin {float(recorded)!r}, "
                f"but --stability-margin is {float(margin)!r}\n"
            )

    def test_results_without_margin_refused(self, runner, tmp_path):
        csv_path = tmp_path / "report.csv"
        csv_path.write_text(
            "criterion,lower,upper,lower_unbounded,upper_unbounded,witnesses\n"
            "exact,-16.39,0.5123,0,0,\n"
        )
        result = runner.invoke(main, ["verify", "--results", str(csv_path), "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert result.output == (
            f"Error: {csv_path} records stability margin none, but --stability-margin is 0.0\n"
        )

    @pytest.mark.parametrize("rows, error", [
        ("exact,-16.39,0.5123\n",
         "line 2 has no numeric stability margin: 'exact,-16.39,0.5123'"),
        ("exact,-16.39,0.5123,0,0,0.0,\npopov,-9,0.5,0,0,0.01,\n",
         "line 3 records stability margin 0.01, but line 2 records 0.0"),
    ], ids=["first_row_without_margin", "later_row_at_another_margin"])
    def test_every_row_margin_checked(self, runner, tmp_path, rows, error):
        csv_path = tmp_path / "report.csv"
        csv_path.write_text(REPORT_HEADER + rows)
        result = runner.invoke(main, ["verify", "--results", str(csv_path), "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)   # no traceback
        assert result.output == f"Error: {csv_path}: {error}\n"

    def test_margin_past_slowest_mode_is_one_error_line(self, runner, tmp_path):
        result = runner.invoke(
            main, ["analyze", "--stability-margin", "0.02", "--out", str(tmp_path)]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)   # no traceback
        # the nominal loop's slowest modes are a pair at Re s = -0.016926
        [line] = result.output.splitlines()
        assert line.startswith("Error: ") and "-0.016926" in line

    @pytest.mark.parametrize("margin", ["-0.05", "nan", "inf"])
    def test_negative_or_nonfinite_margin_rejected(self, runner, tmp_path, margin):
        result = runner.invoke(
            main, ["analyze", f"--stability-margin={margin}", "--out", str(tmp_path)]
        )
        assert result.exit_code == 1
        assert result.output == (
            f"Error: need a finite stability margin >= 0, got {float(margin)!r}\n"
        )
        assert not any(tmp_path.iterdir())

    def test_model_dump_names_margin(self, runner, tmp_path):
        result = run_ok(runner, ["model", "--stability-margin", "0.01", "--out", str(tmp_path)])
        assert "\nH + 0.01*I (stability margin) =\n" in result.output
        assert "\nH =\n" not in result.output
