"""Every mutant of table.py is killed by the tests it names.

Run from the repository root as `python -m pytest -q mutants`; tier-1's
testpaths leave this directory out.  A case copies src/ to a temporary
directory, applies one mutant to the copy and runs the mutant's tests on it
through `python -m pytest -q -x`, with PYTHONPATH pointing at the copy and
the repository's pytest settings.  A case passes only if that run exits 1,
tests failed: 0 means the mutant survived, and 2-5 (interrupted, internal,
usage or collection errors) would not show a kill.  The control case runs
every named test on the unmutated copy and expects 0.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from table import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


def run_on_copy(tmp_path, tests, mutant=None):
    """pytest's exit code and output for tests, run on a copy of src/ with
    the mutant applied (none for the control)."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = src / "rotstar" / mutant["file"]
        text = path.read_text()
        assert text.count(mutant["old"]) == 1, f"{mutant['id']}: old text must occur exactly once"
        path.write_text(text.replace(mutant["old"], mutant["new"]))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    run = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    return run.returncode, run.stdout[-3000:] + run.stderr[-3000:]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["id"] for m in MUTANTS])
def test_mutant_killed(tmp_path, mutant):
    code, output = run_on_copy(tmp_path, mutant["tests"], mutant)
    assert code == 1, f"{mutant['id']} not killed (pytest exit {code}):\n{output}"


def test_control_passes(tmp_path):
    tests = list(dict.fromkeys(t for m in MUTANTS for t in m["tests"]))
    code, output = run_on_copy(tmp_path, tests)
    assert code == 0, f"the unmutated copy fails its tests (pytest exit {code}):\n{output}"
