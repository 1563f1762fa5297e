import re
from pathlib import Path

import cgmargin

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
