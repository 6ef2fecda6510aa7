"""Each command loads only the libraries it runs.

`eval` and `verify` are exact or plain-float arithmetic and must start
without numpy; `sample` needs numpy, though not to reject its input, and
no command loads scipy, not even the `--ks` diagnostic.  Only `sample`
runs a worker thread, so only it loads `concurrent.futures`.  Each case
runs in a fresh interpreter, since this test process may have imported
all of them.  No command loads `dataclasses` or `inspect`.  The package
metadata takes its version from the package itself, and `__all__` is
derived from the package's imports and its lazy sampling names.
"""

import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import pytest

import ghkernel

SRC = Path(__file__).resolve().parents[1] / "src"


def heavy_modules_after(code: str, watched: tuple[str, ...] = ("numpy", "scipy")) -> set[str]:
    """Which of the `watched` modules a fresh interpreter holds after `code`."""
    probe = (
        code
        + "\nimport sys\n"
        + f"print('loaded:' + ' '.join(m for m in {watched!r} if m in sys.modules))\n"
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


def run_cli(*argv: str, exit_code: int = 0) -> str:
    return f"from ghkernel.cli import main\nassert main({list(argv)!r}) == {exit_code}\n"


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


@pytest.mark.parametrize("mode", [None, "exact", "float"])
def test_cli_import_and_verify_skip_dataclasses_and_inspect(tmp_path, mode):
    """The records are plain `__slots__` classes: no command pays for
    `dataclasses`, which imports `inspect`."""
    if mode is None:
        code = "import ghkernel.cli\n"
    else:
        code = run_cli("verify", "rotation", "--mode", mode, "--out", str(tmp_path / "r.json"))
    assert heavy_modules_after(code, ("dataclasses", "inspect")) == set()


def test_sample_loads_numpy_but_not_scipy(tmp_path):
    out = str(tmp_path / "chi.json")
    code = run_cli("sample", "chi-merge", "--count", "1000", "--out", out)
    assert heavy_modules_after(code) == {"numpy"}


def test_sample_ks_loads_numpy_only(tmp_path):
    out = str(tmp_path / "chi.json")
    code = run_cli("sample", "chi-merge", "--count", "1000", "--ks", "--out", out)
    assert heavy_modules_after(code) == {"numpy"}


@pytest.mark.parametrize(
    "argv",
    [
        ("sample", "chi-merge", "--a", "0"),
        ("sample", "matrix", "--xv", "1"),
        ("sample", "inner-product", "--xv", "1,x"),
        ("sample", "inner-product", "--p", "0"),
        ("sample", "inner-product", "--p", "1+1i"),
        ("sample", "matrix", "--xm", "3,0;;0,0"),
        ("sample", "inner-product", "--xv", "3,,4"),
        ("sample", "matrix", "--xm", "1,2;3"),
        ("sample", "chi-merge", "--ks", "--format", "csv"),
    ],
    ids=["chi-merge-a", "matrix-xv", "inner-product-xv", "inner-product-p",
         "inner-product-complex-p", "matrix-blank-row", "inner-product-blank-entry",
         "matrix-ragged", "ks-csv"],
)
def test_sample_usage_errors_exit_before_numpy(argv):
    """Every input check runs before the sampler import, so a usage error
    exits 2 without paying for numpy."""
    assert heavy_modules_after(run_cli(*argv, exit_code=2)) == set()


def no_thread_left(code: str) -> str:
    return "import threading\n" + code + "assert threading.active_count() == 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param((), id="import"),
        pytest.param(("eval", "--m", "2", "--x", "1", "--p", "1"), id="eval"),
        pytest.param(("verify", "matrix"), id="verify-exact"),
        pytest.param(("verify", "matrix", "--mode", "float"), id="verify-float"),
    ],
)
def test_startup_runs_no_thread_pool(tmp_path, argv):
    if argv[:1] == ("verify",):
        argv += ("--out", str(tmp_path / "report.json"))
    code = run_cli(*argv) if argv else "import ghkernel.cli\n"
    assert heavy_modules_after(no_thread_left(code), ("concurrent.futures",)) == set()


def test_sample_pool_is_loaded_and_joined(tmp_path):
    # The positive control of the probe above: `sample` does load the pool,
    # and its worker has finished when the command returns.
    code = run_cli("sample", "chi-merge", "--count", "1000", "--out", str(tmp_path / "c.json"))
    assert heavy_modules_after(no_thread_left(code), ("concurrent.futures",)) == {
        "concurrent.futures"
    }


def test_every_exported_name_resolves():
    for name in ghkernel.__all__:
        assert getattr(ghkernel, name) is not None
    namespace: dict[str, object] = {}
    exec("from ghkernel import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ghkernel.__all__)


def test_exports_are_sorted_unique_and_not_modules():
    names = ghkernel.__all__
    assert names == sorted(set(names))
    assert not any(isinstance(getattr(ghkernel, name), types.ModuleType) for name in names)


def test_lazy_names_are_the_public_sampling_definitions():
    """`_SAMPLING_NAMES` is the one list the imports cannot derive: it must
    name every public function and class that `ghkernel.sampling` defines."""
    import ghkernel.sampling

    defined = {
        name
        for name, value in vars(ghkernel.sampling).items()
        if not name.startswith("_")
        and isinstance(value, (type, types.FunctionType))
        and value.__module__ == ghkernel.sampling.__name__
    }
    assert ghkernel._SAMPLING_NAMES == defined
    assert ghkernel._SAMPLING_NAMES <= set(ghkernel.__all__)


def test_lazy_exports_are_the_sampling_objects():
    import ghkernel.sampling

    assert ghkernel.RngStream is ghkernel.sampling.RngStream
    assert ghkernel.ks_two_sample is ghkernel.sampling.ks_two_sample


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        ghkernel.no_such_name


def test_version_is_stated_once():
    """pyproject.toml declares the version dynamic, read from
    ghkernel.__version__, instead of repeating it."""
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "ghkernel.__version__"
    }


def test_warnings_fail_the_suite():
    """pyproject.toml turns every warning into an error, so a stray numpy
    RuntimeWarning fails its test instead of scrolling by."""
    with pytest.raises(UserWarning):
        warnings.warn("stray", UserWarning)
