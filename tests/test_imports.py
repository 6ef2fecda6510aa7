"""Each command loads only the libraries it runs.

`eval` and `verify` are exact or plain-float arithmetic and must start
without numpy; `sample` needs numpy, and no command loads scipy, not even
the `--ks` diagnostic.  Each case runs in a fresh interpreter, since this
test process may have imported both.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ghkernel

SRC = Path(__file__).resolve().parents[1] / "src"


def heavy_modules_after(code: str) -> set[str]:
    """Which of numpy and scipy a fresh interpreter holds after `code`."""
    probe = (
        code
        + "\nimport sys\n"
        + "print('loaded:' + ' '.join(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    last = result.stdout.splitlines()[-1]
    assert last.startswith("loaded:")
    return set(last[len("loaded:"):].split())


def run_cli(*argv: str) -> str:
    return f"from ghkernel.cli import main\nassert main({list(argv)!r}) == 0\n"


def test_package_import_skips_numpy_and_scipy():
    assert heavy_modules_after("import ghkernel") == set()


def test_cli_import_skips_numpy_and_scipy():
    assert heavy_modules_after("import ghkernel.cli") == set()


def test_eval_skips_numpy_and_scipy():
    assert heavy_modules_after(run_cli("eval", "--m", "2", "--x", "1", "--p", "1")) == set()


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_verify_skips_numpy_and_scipy(tmp_path, mode):
    out = str(tmp_path / "report.json")
    code = run_cli("verify", "matrix", "--mode", mode, "--out", out)
    assert heavy_modules_after(code) == set()


def test_sample_loads_numpy_but_not_scipy(tmp_path):
    out = str(tmp_path / "chi.json")
    code = run_cli("sample", "chi-merge", "--count", "1000", "--out", out)
    assert heavy_modules_after(code) == {"numpy"}


def test_sample_ks_loads_numpy_only(tmp_path):
    out = str(tmp_path / "chi.json")
    code = run_cli("sample", "chi-merge", "--count", "1000", "--ks", "--out", out)
    assert heavy_modules_after(code) == {"numpy"}


def test_every_exported_name_resolves():
    for name in ghkernel.__all__:
        assert getattr(ghkernel, name) is not None
    namespace: dict[str, object] = {}
    exec("from ghkernel import *", namespace)
    assert set(ghkernel.__all__) <= set(namespace)


def test_lazy_exports_are_the_sampling_objects():
    import ghkernel.sampling

    assert ghkernel.RngStream is ghkernel.sampling.RngStream
    assert ghkernel.ks_two_sample is ghkernel.sampling.ks_two_sample


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        ghkernel.no_such_name
