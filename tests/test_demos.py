"""Smoke test: the fast demos run to completion against the public API,
every scenario that README.md shows builds, every name its Python imports
exists, and the benches outside the suite still import."""

import ast
import importlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from topobohm.scenario import Scenario

ROOT = Path(__file__).resolve().parents[1]

# 07 (GRW collapse, about 4 s) is left out: it would add half again to this
# file's run time, and the API it uses is already exercised by
# test_collapse.
FAST_DEMOS = [
    "01_twisted_ring_spectra.py",
    "02_aharonov_bohm_gauge_equivalence.py",
    "03_bohmian_trajectories.py",
    "04_equivariance_check.py",
    "05_factor_classification.py",
    "06_twisted_representations.py",
]


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_runs(name, tmp_path, src_env):
    # run in a scratch directory: demos may write plots to the working dir
    result = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                            cwd=tmp_path, env=src_env, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr


def test_readme_scenarios_build():
    # every JSON block of README.md is a scenario, so the README cannot
    # show a key that the schema refuses
    blocks = re.findall(r"```json\n(.*?)```",
                        (ROOT / "README.md").read_text(), flags=re.S)
    assert blocks
    for block in blocks:
        Scenario(json.loads(block))


def test_readme_python_imports_exist():
    blocks = re.findall(r"```python\n(.*?)```",
                        (ROOT / "README.md").read_text(), flags=re.S)
    assert blocks
    for block in blocks:
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) \
                    and node.module.split(".")[0] == "topobohm":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), \
                        f"{node.module}.{alias.name}"


@pytest.mark.parametrize("name", ["bench_collapse.py", "bench_evaluators.py"])
def test_bench_imports(name):
    # the benches are left out of collection, so an API trim that breaks
    # their imports would otherwise go unseen
    spec = importlib.util.spec_from_file_location(name[:-3],
                                                  ROOT / "tests" / name)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
