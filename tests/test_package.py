import re
import shlex
from pathlib import Path

from click.testing import CliRunner

import cgmargin
from cgmargin.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    assert [name for name in cgmargin.__all__ if not hasattr(cgmargin, name)] == []


def test_root_exports_the_documented_entry_points():
    assert sorted(cgmargin.__all__) == sorted([
        "AnalysisConfig", "run_analysis", "build_session", "model_of", "sample_locus",
        "analyze_model"])


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    # every command of the CLI block, in order, from one working directory
    [block] = [b for b in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
               if re.search(r"^cgmargin ", b, re.M)]
    commands = [shlex.split(ln)[1:] for ln in block.splitlines() if ln.startswith("cgmargin ")]
    assert len(commands) >= 2
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    for args in commands:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args, result.output)
