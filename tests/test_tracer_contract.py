"""The benchmark tracer's wrap points exist in the package.

``perfbench/tracer.py`` times the package by replacing functions at the
names the calling modules look up.  A renamed or removed wrap point shows
up in ``Tracer.missing``; this test catches it without a benchmark run.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_finds_every_wrap_point():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
