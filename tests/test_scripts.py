"""The reproduction scripts under ``scripts/`` run against the package.

Each subcommand is run as a subprocess on its smallest setting.  Left
out: ``obstacle_lu.py fallback`` (about 7 s, with no size flag).
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

RUNS = {
    "flow_clock-identity": ["flow_clock.py", "identity"],
    "flow_clock-circle": ["flow_clock.py", "circle", "--tau", "1e-3"],
    "flow_clock-wulff": ["flow_clock.py", "wulff", "--tau", "1e-3"],
    "coupled_schur-neumann": ["coupled_schur.py", "neumann", "--steps", "2"],
    "coupled_schur-rounds": ["coupled_schur.py", "rounds", "--steps", "2"],
    "coupled_schur-ordering": ["coupled_schur.py", "ordering", "--count", "1",
                               "--repeats", "1"],
    "coupled_schur-support": ["coupled_schur.py", "support", "--steps", "2"],
    "coupled_schur-transform": ["coupled_schur.py", "transform", "--n2", "16",
                                "--n3", "6", "--repeats", "1"],
    "obstacle_lu-band": ["obstacle_lu.py", "band", "--steps", "2"],
    "fingerprint": ["fingerprint.py", "--subdivisions", "16", "--steps", "2"],
}


def _run(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]),
                           *argv[1:]], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    return proc.stdout


@pytest.mark.parametrize("argv", RUNS.values(), ids=RUNS.keys())
def test_script_runs(argv):
    _run(argv)


def test_every_subcommand_runs_and_every_reference_resolves():
    """Each script's subcommands, as its ``--help`` lists them, are run
    above or left out in the module docstring, and every
    ``scripts/<file>.py <sub>`` in DECISIONS.md names one of them, unless
    it is pinned to a commit (``<sha>:scripts/...``)."""
    subcommands = {}
    for path in sorted((ROOT / "scripts").glob("*.py")):
        listed = re.search(r"^positional arguments:\n\s+\{([^}]*)\}",
                           _run([path.name, "--help"]), re.M)
        subcommands[path.name] = (set(listed[1].split(",")) if listed
                                  else {None})
    covered = {(argv[0], None if argv[1].startswith("-") else argv[1])
               for argv in RUNS.values()}
    covered |= set(re.findall(r"``(\w+\.py) (\w+)``", __doc__))
    for name, subs in subcommands.items():
        for sub in subs:
            assert (name, sub) in covered, (
                f"{name} {sub} is neither run nor left out")
    text = (ROOT / "DECISIONS.md").read_text()
    pattern = r"(?<![\w:])scripts/(\w+\.py)(?: ([a-z]\w*))?"
    for name, sub in re.findall(pattern, text):
        assert name in subcommands, f"DECISIONS.md names a missing {name}"
        if sub:
            assert sub in subcommands[name], (
                f"DECISIONS.md names a missing {name} {sub}")
