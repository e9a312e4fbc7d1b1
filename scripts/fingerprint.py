"""Per-step fingerprints of the benchmark's workloads.

    PYTHONPATH=src python scripts/fingerprint.py --workload all --seed 0

Runs each workload of ``perfbench/workloads.py`` (its configuration text
for the seed, from ``workloads.config_text``) into a temporary directory
and prints, per step, the SHA-256 of U and of W (their float64 bytes) and
the active-set rounds, then the SHA-256 of the run's ``energy.csv``, the
total rounds and the number of banded Cholesky factors
(``obstacle._factor_spd`` calls).  Two checkouts give the same bits on a
workload when their lines for it are equal, so ``diff`` of two outputs
is the check.  ``--subdivisions`` and ``--steps`` shrink a workload as
the benchmark's own tests do.

The bits depend on the BLAS thread count (ROADMAP item 4), so BLAS runs
on one thread, as in the benchmark, unless the environment sets the
thread variables; the header line prints them.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

import anisofield.obstacle as obstacle
from anisofield import parse_config, run_simulation

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, config_text  # noqa: E402


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def fingerprint(name, seed, subdivisions=None, steps=None):
    """The output lines of one workload run."""
    text, _ = config_text(WORKLOADS[name], seed, ROOT, subdivisions, steps)
    setup = parse_config(text)
    lines = []

    def on_step(state):
        if state.n:
            lines.append(f"{name} seed {seed} step {state.n}: "
                         f"U {_sha(state.u.tobytes())} "
                         f"W {_sha(state.w.tobytes())} "
                         f"rounds {state.stats.iterations}")

    factors = []
    factor_spd = obstacle._factor_spd

    def counting(mat, **kwargs):
        factors.append(mat.shape[0])
        return factor_spd(mat, **kwargs)

    obstacle._factor_spd = counting
    try:
        with tempfile.TemporaryDirectory() as out:
            result = run_simulation(setup.scheme, setup.build_mesh(),
                                    setup.anisotropy, setup.geometry,
                                    out_dir=out, on_step=on_step,
                                    strict=False, config_text=text)
            csv = _sha(Path(result.csv_path).read_bytes())
    finally:
        obstacle._factor_spd = factor_spd
    rounds = sum(r.solver_iters for r in result.records)
    lines.append(f"{name} seed {seed}: energy.csv {csv} rounds {rounds} "
                 f"factors {len(factors)}"
                 + (" FAILED" if result.failed else ""))
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--subdivisions", type=int)
    parser.add_argument("--steps", type=int)
    args = parser.parse_args()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("threads: " + ", ".join(
        f"{var}={os.environ.get(var)}" for var in
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")))
    for name in names:
        print("\n".join(fingerprint(name, args.seed, args.subdivisions,
                                    args.steps)), flush=True)


if __name__ == "__main__":
    main()
