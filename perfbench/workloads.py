"""The three workloads: inputs drawn from a seed, one operation, its checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  ``op(i)`` is the timed operation on
input ``i`` (inputs cycle when a run outlasts the pool); ``op_inprocess(i)``
is the same work with every layer in this process, for the traced run;
``check(i, output)`` returns a list of problems and is never timed.
"""

from __future__ import annotations

import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
from click.testing import CliRunner

import cgmargin.cli
from cgmargin import aircraft, criteria, pipeline, svgplot
from cgmargin.mdelta import MDeltaModel, m_transfer, rank_one_factor

import benchenv
import checks

# Graphical criteria report a side they cannot bound as unbounded, with a
# warning; random models hit that routinely and it is not a failure.
warnings.filterwarnings("ignore", message=".*intercept of the wrong sign")

GAIN_SPREAD = 0.2   # gains are drawn uniformly within +-20% of their defaults


def draw_gains(rng) -> dict:
    lo, hi = 1.0 - GAIN_SPREAD, 1.0 + GAIN_SPREAD
    return {
        "kq": pipeline.DEFAULT_KQ * float(rng.uniform(lo, hi)),
        "kalpha": pipeline.DEFAULT_KALPHA * float(rng.uniform(lo, hi)),
        "controller_gain": pipeline.DEFAULT_CONTROLLER_GAIN * float(rng.uniform(lo, hi)),
    }


def default_gains() -> dict:
    return {
        "kq": pipeline.DEFAULT_KQ,
        "kalpha": pipeline.DEFAULT_KALPHA,
        "controller_gain": pipeline.DEFAULT_CONTROLLER_GAIN,
    }


def random_rank_one_model(rng, n=6, shift=0.5):
    """Random stable state matrix with a random rank-1 perturbation.

    The generator of the test suite's random models, kept here so that an
    edit to the tests cannot change this benchmark's inputs.
    """
    A = rng.normal(size=(n, n))
    A = A - (np.max(np.linalg.eigvals(A).real) + shift) * np.eye(n)
    Q = np.outer(rng.normal(size=n), rng.normal(size=n))
    sigma, v, w = rank_one_factor(Q)
    return MDeltaModel(
        H=A, Qcal=Q, sigma=sigma, v=v, w=w, M=m_transfer(A, sigma, v, w)
    )


def own_peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def analyze_model(model, wmin, wmax, npoints, n_verify):
    """The calls run_analysis makes, on a model that has no aircraft behind it."""
    summary = criteria.sample_locus(model.M, wmin=wmin, wmax=wmax, n=npoints)
    intervals, reports = {}, {}
    for name in criteria.CRITERIA:
        if name == "exact":
            iv = criteria.exact_bounds(model, summary)
        elif name == "small_gain":
            iv = criteria.small_gain_bounds(summary)
        elif name == "circle":
            iv = criteria.circle_bounds(summary, center="optimal")
        elif name == "positive_real":
            iv = criteria.positive_real_bounds(summary)
        else:
            iv = criteria.popov_bounds(summary)
        intervals[name] = iv
        if checks.finite(iv):
            reports[name] = criteria.verify_interval(model, iv, n_verify)
    return intervals, reports


class AircraftSweep:
    """run_analysis on the bundled model with retuned gains.

    Why: the paper's model used the way a designer retunes gains and
    re-reads the c.g. margin; frequency-response work dominates here.
    """

    name = "aircraft_sweep"
    POOL = 256
    TRACE_OPS = 40

    def __init__(self, seed: int, workdir: Path, npoints: int = 4000):
        rng = np.random.default_rng(seed)
        gains = [default_gains()] + [draw_gains(rng) for _ in range(self.POOL - 1)]
        self.configs = [pipeline.AnalysisConfig(npoints=npoints, **g) for g in gains]

    def op(self, i):
        return pipeline.run_analysis(self.configs[i % self.POOL])

    op_inprocess = op
    peak_rss_kb = staticmethod(own_peak_rss_kb)

    def check(self, i, result):
        cfg = self.configs[i % self.POOL]
        return checks.check_analysis(
            result.session.model, result.intervals, result.reports,
            cfg.wmin, cfg.wmax, known=(cfg == pipeline.AnalysisConfig()),
        )


class RandomModels:
    """Seeded stable random rank-1 models of n states, analysed as run_analysis would.

    Why: state dimension is the input property that cost scales with; at
    n = 32 the eigen solves weigh several times more than on the aircraft.
    """

    name = "random_n32"
    POOL = 128
    TRACE_OPS = 20
    SHIFT = 0.5
    WMIN, WMAX = 1e-4, 1e4
    N_VERIFY = 50

    def __init__(self, seed: int, workdir: Path, n: int = 32, npoints: int = 4000):
        rng = np.random.default_rng(seed)
        self.models = [random_rank_one_model(rng, n=n, shift=self.SHIFT)
                       for _ in range(self.POOL)]
        self.npoints = npoints

    def op(self, i):
        return analyze_model(self.models[i % self.POOL], self.WMIN, self.WMAX,
                             self.npoints, self.N_VERIFY)

    op_inprocess = op
    peak_rss_kb = staticmethod(own_peak_rss_kb)

    def check(self, i, output):
        intervals, reports = output
        return checks.check_analysis(self.models[i % self.POOL], intervals,
                                     reports, self.WMIN, self.WMAX)


class CliSession:
    """One ``python -m cgmargin.cli`` command per operation.

    Why: this is how engineers run the tool, and the only workload with
    interpreter start-up, imports, click, report formatting, svgplot and
    file output on the path.  Each cycle of commands uses one set of gains
    (the first cycle the defaults), so ``verify --results`` re-reads the
    report that the cycle's ``analyze`` wrote.
    """

    name = "cli_session"
    POOL = 16   # cycles
    TRACE_OPS = 16
    COMMANDS = (
        ("model",),
        ("analyze",),
        ("plot", "nyquist_smallgain"),
        ("plot", "nyquist_circle"),
        ("plot", "nyquist_posreal"),
        ("plot", "popov"),
        ("verify", "--n-samples", "200"),
        ("verify", "--results", "{out}/report.csv"),
    )

    def __init__(self, seed: int, workdir: Path, npoints: int = 4000):
        rng = np.random.default_rng(seed)
        self.gains = [default_gains()] + [draw_gains(rng) for _ in range(self.POOL - 1)]
        self.npoints = npoints
        self.workdir = workdir
        self.env = benchenv.child_env()
        self.max_child_rss_kb = 0
        self._reference = {}

    def _command(self, i):
        cycle, step = divmod(i, len(self.COMMANDS))
        cycle %= self.POOL
        out = self.workdir / f"cycle{cycle}"
        g = self.gains[cycle]
        args = [a.format(out=out) for a in self.COMMANDS[step]]
        args += ["--kq", repr(g["kq"]), "--kalpha", repr(g["kalpha"]),
                 "--controller-gain", repr(g["controller_gain"]),
                 "--npoints", str(self.npoints), "--out", str(out)]
        return cycle, step, out, args

    def op(self, i):
        _, step, out, args = self._command(i)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"stdout{step}.txt", "wb") as so, \
                open(out / f"stderr{step}.txt", "wb") as se:
            proc = subprocess.Popen(
                [sys.executable, "-m", "cgmargin.cli", *args],
                cwd=benchenv.ROOT, env=self.env, stdout=so, stderr=se,
            )
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def op_inprocess(self, i):
        _, step, out, args = self._command(i)
        out.mkdir(parents=True, exist_ok=True)
        res = CliRunner().invoke(cgmargin.cli.main, args)
        (out / f"stdout{step}.txt").write_text(res.stdout)
        (out / f"stderr{step}.txt").write_text(res.stderr)
        return res.exit_code

    def peak_rss_kb(self) -> int:
        """Peak of the largest command process (in-process ops excluded)."""
        return self.max_child_rss_kb

    def reference(self, cycle):
        """In-process analysis of a cycle's gains, computed once per cycle."""
        if cycle not in self._reference:
            cfg = pipeline.AnalysisConfig(npoints=self.npoints, **self.gains[cycle])
            self._reference[cycle] = (cfg, pipeline.run_analysis(cfg))
        return self._reference[cycle]

    def check(self, i, exit_code):
        cycle, step, out, args = self._command(i)
        if exit_code != 0:
            err = (out / f"stderr{step}.txt").read_text().strip().splitlines()
            return [f"{args[0]} exited {exit_code}: {err[-1] if err else ''}"]
        cfg, ref = self.reference(cycle)
        command = args[0]
        if command == "model":
            return self._check_model(out)
        if command == "analyze":
            problems = checks.check_analysis(
                ref.session.model, ref.intervals, ref.reports, cfg.wmin, cfg.wmax,
                known=(cfg == pipeline.AnalysisConfig()),
            )
            got = pipeline.parse_report_csv((out / "report.csv").read_text())
            return problems + checks.check_same_bounds(got, ref.intervals)
        if command == "plot":
            return self._check_plot(out, args[1], ref)
        n_finite = sum(checks.finite(iv) for iv in ref.intervals.values())
        stdout = (out / f"stdout{step}.txt").read_text()
        passes = stdout.count(" PASS (")
        if passes != n_finite or " FAIL (" in stdout:
            return [f"verify printed {passes} PASS lines for {n_finite} finite intervals"]
        return []

    @staticmethod
    def _check_model(out):
        problems = []
        if "H =" not in (out / "model_dump.txt").read_text():
            problems.append("model_dump.txt lacks H")
        echoed = aircraft.parse_model_text((out / "model_echo.cfg").read_text())
        if echoed != aircraft.load_default_model():
            problems.append("model_echo.cfg does not round-trip the bundled model")
        return problems

    @staticmethod
    def _check_plot(out, figure, ref):
        problems = []
        svg = (out / f"fig_{figure}.svg").read_text()
        if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
            problems.append(f"fig_{figure}.svg is not a complete SVG document")
        rows = svgplot.csv_to_rows((out / f"locus_{figure}.csv").read_text())
        samples = [r for r in rows if r[0] == "sample"]
        if len(samples) != ref.session.summary.omegas.size:
            problems.append(
                f"locus_{figure}.csv has {len(samples)} samples, "
                f"expected {ref.session.summary.omegas.size}"
            )
        if not all(math.isfinite(x) for r in rows for x in r[1:]):
            problems.append(f"locus_{figure}.csv holds non-finite values")
        return problems


WORKLOADS = {w.name: w for w in (AircraftSweep, RandomModels, CliSession)}
