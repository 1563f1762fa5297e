"""Command-line front end: model inspection, analysis, plots, verification."""

from __future__ import annotations

import sys
from dataclasses import fields
from pathlib import Path

import click

from . import aircraft, pipeline
from .criteria import CRITERIA
from .errors import CgMarginError

# figure -> the criterion whose interval it draws
FIGURE_CRITERIA = {row.figure: name for name, row in pipeline.CRITERION_TABLE.items() if row.figure}
FIGURES = tuple(FIGURE_CRITERIA)
# --criteria short name -> criterion: a figure's name less its nyquist_ plane
ALIASES = {figure.removeprefix("nyquist_"): name for figure, name in FIGURE_CRITERIA.items()}
# option defaults: those of the analysis settings
DEFAULTS = {f.name: f.default for f in fields(pipeline.AnalysisConfig)}


def _parse_complex_list(_ctx, _param, value):
    if value is None:
        return None
    try:
        return tuple(complex(tok.strip()) for tok in value.split(",") if tok.strip())
    except ValueError as exc:
        raise click.BadParameter(f"expected comma-separated numbers: {exc}")


def _common_options(fn):
    opts = [
        click.option(
            "--model",
            "model_path",
            type=click.Path(exists=True, dir_okay=False, path_type=Path),
            default=None,
            help="Model-definition file (default: bundled aircraft data).",
        ),
        click.option("--kq", type=float, default=DEFAULTS["kq"],
                     show_default=True, help="Inner-loop pitch-rate gain."),
        click.option("--kalpha", type=float, default=DEFAULTS["kalpha"],
                     show_default=True, help="Inner-loop angle-of-attack gain."),
        click.option("--controller-zeros", callback=_parse_complex_list,
                     default=None, help="Controller zeros, comma separated."),
        click.option("--controller-poles", callback=_parse_complex_list,
                     default=None, help="Controller poles, comma separated."),
        click.option("--controller-gain", type=float, default=None,
                     help="Controller gain."),
        click.option("--wmin", type=float, default=DEFAULTS["wmin"], show_default=True),
        click.option("--wmax", type=float, default=DEFAULTS["wmax"], show_default=True),
        click.option("--npoints", type=int, default=DEFAULTS["npoints"], show_default=True),
        click.option("--stability-margin", type=float, default=DEFAULTS["stability_margin"],
                     show_default=True,
                     help="Degree of stability m >= 0: every result reads M(s - m)."),
        click.option("--out", "out_dir",
                     type=click.Path(file_okay=False, path_type=Path),
                     default=Path("cgmargin_out"), show_default=True),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


def _make_config(**settings):
    """AnalysisConfig of the settings given; one left as None takes its default
    (an empty list is given: no zeros, or no poles)."""
    try:
        return pipeline.AnalysisConfig(**{k: v for k, v in settings.items() if v is not None})
    except ValueError as exc:
        raise click.ClickException(str(exc))


class _Group(click.Group):
    """A command group whose commands end a package error, or a request too
    large to allocate, with one Error: line and no traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (CgMarginError, MemoryError) as exc:
            raise click.ClickException(str(exc))


@click.group(cls=_Group)
def main():
    """Robust stability bounds for an aircraft with uncertain c.g. location."""


@main.command("model")
@_common_options
def cmd_model(out_dir: Path, **kw):
    """Print the model matrices and write a machine-readable dump."""
    config = _make_config(**kw)
    session = pipeline.build_session(config)
    dump = pipeline.format_model_dump(session)
    click.echo(dump)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "model_dump.txt").write_text(dump)
    (out_dir / "model_echo.cfg").write_text(
        aircraft.format_model_text(session.fc, session.dl)
    )
    click.echo(f"wrote {out_dir / 'model_dump.txt'} and {out_dir / 'model_echo.cfg'}")


@main.command("analyze")
@click.option(
    "--criteria",
    "criteria_list",
    default=",".join(CRITERIA),
    show_default=True,
    help="Comma-separated subset of: " + ", ".join(CRITERIA),
)
@click.option("--n-verify", type=click.IntRange(min=0), default=DEFAULTS["n_verify"],
              show_default=True, help="Interior stability samples per interval.")
@_common_options
def cmd_analyze(criteria_list: str, n_verify: int, out_dir: Path, **kw):
    """Compute stability bounds and render the report table.

    Exit code 0 only if every produced interval passes interior-stability
    verification.
    """
    tokens = (tok.strip() for tok in criteria_list.split(","))
    names = tuple(ALIASES.get(tok, tok) for tok in tokens if tok)
    config = _make_config(criteria=names, n_verify=n_verify, **kw)
    result = pipeline.run_analysis(config)
    table = pipeline.format_report_table(result.intervals)
    click.echo(table)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.txt").write_text(table)
    (out_dir / "report.csv").write_text(
        pipeline.format_report_csv(result.intervals, config.stability_margin)
    )
    click.echo(f"wrote {out_dir / 'report.txt'} and {out_dir / 'report.csv'}")
    for name, report in result.reports.items():
        status = "ok" if report.passed else "FAILED"
        click.echo(f"verify {name}: {status} ({report.n_checked} interior samples)")
    if not result.all_sound:
        sys.exit(1)


@main.command("plot")
@click.argument("figure", type=click.Choice(FIGURES))
@click.option("--format", "fmt", type=click.Choice(["csv", "svg", "both"]),
              default="both", show_default=True)
@_common_options
def cmd_plot(figure: str, fmt: str, out_dir: Path, **kw):
    """Emit locus data (CSV) and a rendered figure (SVG)."""
    from . import svgplot  # here, not on top: 4 ms per CLI run without cached bytecode

    config = _make_config(**kw)
    session = pipeline.build_session(config)
    rows, title, xlabel, ylabel, equal = _figure_rows(session, figure)
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt in ("csv", "both"):
        path = out_dir / f"locus_{figure}.csv"
        path.write_text(svgplot.rows_to_csv(rows))
        click.echo(f"wrote {path}")
    if fmt in ("svg", "both"):
        path = out_dir / f"fig_{figure}.svg"
        path.write_text(
            svgplot.render_svg(rows, title, xlabel, ylabel, equal_aspect=equal)
        )
        click.echo(f"wrote {path}")


def _figure_rows(session, figure: str):
    """Samples of the locus, then the geometry of the criterion's interval and
    its real-axis intercepts as markers."""
    criterion = pipeline.CRITERION_TABLE[FIGURE_CRITERIA[figure]]
    s = session.summary
    geometry, intercepts = criterion.geometry(criterion.bounds(session.model, s).witnesses)
    popov = criterion.popov_plane
    y = s.omegas * s.values.imag if popov else s.values.imag
    rows = [("sample", *row) for row in zip(s.omegas.tolist(), s.values.real.tolist(), y.tolist())]
    rows += geometry + [("marker", x, 0.0, 0.0) for x in intercepts]
    title = f"{criterion.label} criterion"
    return rows, title, "Re M(jω)", "ω Im M(jω)" if popov else "Im M(jω)", not popov


@main.command("verify")
@click.option("--n-samples", type=click.IntRange(min=0), default=100, show_default=True)
@click.option(
    "--results",
    type=click.Path(exists=True, dir_okay=False, path_type=Path),
    default=None,
    help="Re-verify intervals from a previously written report.csv.",
)
@_common_options
def cmd_verify(n_samples: int, results: Path, out_dir: Path, **kw):
    """Interior-stability audit of every criterion interval."""
    config = _make_config(n_verify=n_samples, **kw)
    if results is not None:
        try:
            margin, intervals = pipeline.read_report(results.read_text())
        except ValueError as exc:
            raise click.ClickException(f"{results}: {exc}")
        if margin != config.stability_margin:
            recorded = "none" if margin is None else repr(margin)
            raise click.ClickException(f"{results} records stability margin {recorded}, "
                                       f"but --stability-margin is {config.stability_margin!r}")
    session = pipeline.build_session(config)
    if results is None:
        intervals, reports = pipeline.analyze_model(session.model, session.summary, config)
    else:
        reports = pipeline.audit_intervals(session.model, intervals, n_samples)
    for name in intervals:
        report = reports.get(name)
        if report is None:
            click.echo(f"{name:<14} SKIP (unbounded side)")
            continue
        status = "PASS" if report.passed else "FAIL"
        detail = ""
        if report.crossings:
            d, w = report.crossings[0]
            detail += f"  boundary crossing inside at delta={d:.6g} (w={w:.6g})"
        if report.failures:
            d, mr = report.failures[0]
            detail += f"  first failure at delta={d:.6g} (max Re eig {mr:.3e})"
        click.echo(f"{name:<14} {status} ({report.n_checked} samples){detail}")
    if not all(report.passed for report in reports.values()):
        sys.exit(1)


if __name__ == "__main__":
    main()
