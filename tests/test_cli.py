import numpy as np
import pytest
from click.testing import CliRunner

from cgmargin import svgplot
from cgmargin.aircraft import load_default_model, load_model_file
from cgmargin.cli import FIGURES, main
from cgmargin.pipeline import parse_report_csv


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

    def test_missing_model_file(self, runner, tmp_path):
        result = runner.invoke(main, ["model", "--model", str(tmp_path / "x.cfg")])
        assert result.exit_code != 0

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
        result = runner.invoke(
            main, ["analyze", "--criteria", "bogus", "--out", str(tmp_path)]
        )
        assert result.exit_code != 0
        assert "unknown criteria" in result.output

    def test_unstable_nominal_aborts(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["analyze", "--kq", "0", "--kalpha", "0", "--out", str(tmp_path)],
        )
        assert result.exit_code != 0
        assert "unstable" in result.output

    def test_midpoint_center_widens_circle(self, runner, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_ok(runner, ["analyze", "--criteria", "circle", "--out", str(out_a)])
        run_ok(runner, ["analyze", "--criteria", "circle", "--midpoint-center",
                        "--out", str(out_b)])
        opt = parse_report_csv((out_a / "report.csv").read_text())["circle"]
        mid = parse_report_csv((out_b / "report.csv").read_text())["circle"]
        assert opt.upper != mid.upper


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


class TestVerifyCommand:
    def test_default_passes(self, runner, tmp_path):
        result = run_ok(runner, ["verify", "--n-samples", "20",
                                 "--out", str(tmp_path)])
        assert result.output.count("PASS") == 5
        assert "FAIL" not in result.output

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
        csv_path.write_text(
            "criterion,lower,upper,lower_unbounded,upper_unbounded,witnesses\n"
            "popov,-16.46,0.5,0,0,\n"
        )
        result = runner.invoke(
            main, ["verify", "--results", str(csv_path), "--out", str(tmp_path)]
        )
        assert result.exit_code == 1
        assert "popov          FAIL" in result.output
        assert "boundary crossing inside at delta=-16.3939 (w=0.0209409)" in result.output
        assert "first failure" not in result.output

    def test_skips_unbounded_rows(self, runner, tmp_path):
        csv_path = tmp_path / "report.csv"
        csv_path.write_text(
            "criterion,lower,upper,lower_unbounded,upper_unbounded,witnesses\n"
            "popov,-inf,0.5,1,0,\n"
        )
        result = run_ok(
            runner, ["verify", "--results", str(csv_path), "--out", str(tmp_path)]
        )
        assert "SKIP" in result.output
