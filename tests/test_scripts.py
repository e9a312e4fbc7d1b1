"""The reproduction scripts under ``scripts/`` run against the package.

Each script is run as a subprocess on its smallest setting.  Left out:
``coupled_schur.py fig4 --steps 1`` (about 6 s at N = 128), the
flow-clock ``circle`` and ``wulff`` runs (minutes) and
``obstacle_lu.py fallback`` (about 6 s).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["flow_clock.py", "identity"],
    ["coupled_schur.py", "neumann", "--steps", "2"],
    ["coupled_schur.py", "rounds", "--steps", "2"],
    ["coupled_schur.py", "precond", "--steps", "1", "--repeats", "1"],
    ["coupled_schur.py", "ordering", "--count", "1", "--repeats", "1"],
    ["coupled_schur.py", "support", "--steps", "2"],
    ["coupled_schur.py", "transform", "--n2", "16", "--n3", "6",
     "--repeats", "1"],
    ["obstacle_lu.py", "band", "--steps", "2"],
    ["obstacle_lu.py", "newton", "--steps", "2"],
    ["band_assembly.py", "--subdivisions", "16", "--steps", "2",
     "--repeats", "1"],
    ["fingerprint.py", "--subdivisions", "16", "--steps", "2"],
], ids=["flow_clock-identity", "coupled_schur-neumann",
        "coupled_schur-rounds", "coupled_schur-precond",
        "coupled_schur-ordering", "coupled_schur-support",
        "coupled_schur-transform",
        "obstacle_lu-band", "obstacle_lu-newton", "band_assembly",
        "fingerprint"])
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]),
                           *argv[1:]], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
