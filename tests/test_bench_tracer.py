"""The benchmark's tracer still finds every name it wraps.

`bench/tracing.py` rebinds ghkernel's functions by name, so a change that
drops or renames one of them breaks `bench/run.py --trace 1`.  This runs
the tracer around two in-process commands and checks that it counted
them and put every original back.
"""

from pathlib import Path

import pytest

from ghkernel import sampling
from ghkernel.cli import main
from ghkernel.scalars import Scalar

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    return tracing


def test_tracer_wraps_matrix_commands_and_uninstall_restores(tracing, tmp_path, capsys):
    mul = Scalar.__mul__
    samplers = {name: getattr(sampling, name) for name in tracing.SAMPLERS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert Scalar.__mul__ is not mul
        assert main(["verify", "matrix", "--out", str(tmp_path / "verify.json")]) == 0
        assert main(["sample", "matrix", "--count", "1000",
                     "--out", str(tmp_path / "sample.json")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.metrics()
    assert metrics["sweeps.reports"] == 42
    assert metrics["sampling.normals_drawn"] > 0
    assert Scalar.__mul__ is mul
    assert {name: getattr(sampling, name) for name in tracing.SAMPLERS} == samplers
