"""Golden reports: every byte of the verify and sample reports is pinned.

The SHA-256 digests below are of the report files `ghkernel verify` writes
on the built-in grids and at three explicit points, of four float reports
with failing rows, and of five seeded `ghkernel sample` reports.  Any change to the mathematics, the enumeration
order, the draw layout or the serialization changes a digest.  The same
exact reports then show that each `grid_description` tells the truth about
the grid its sweep enumerates, and that their content matches the records
the benchmark holds them to (`bench/reports.py`).  Every JSON report must also parse as strict
JSON: no `NaN` or `Infinity` token.
"""

from __future__ import annotations

import hashlib
import json
import re
from itertools import groupby
from pathlib import Path

import pytest

from ghkernel.cli import main
from ghkernel.sweeps import SWEEPS, grid_description

SWEEP_DIGESTS = {
    ("graczyk", "exact"): "2250b50bccca5ae12109ca624417d7b245c5a488e88b55c4518f34dcdaf69fc9",
    ("rotation", "exact"): "7ae253a6e0dfa1fa8806dba4015ef1723e00a88d5a6b28e9baa76735b4a4318a",
    ("factorization", "exact"): "e6f8d75f78432eca27edbb98cd6cbe13366b6ca7d768f59105ec5369f61a8f22",
    ("inner-product-moments", "exact"): "e00614497e4f83a3f845bf60404084db1de90f2add599c2ce99f789589c8ca32",
    ("matrix", "exact"): "33fce42a9ac7b712d7a3197633d0a25b998077f548e8b6a956ab40832d4bd101",
    ("graczyk", "float"): "69be86482857c89233fd0ad4f6612367a033816550487c6be480353b5dae2814",
    ("rotation", "float"): "0d5e3bdf3446f84415cc23fcb9f682052e1ba8425e498e32dece9c80edadd1e5",
    ("factorization", "float"): "1ec80f320b478d68e65fa1c006df71f393d0c3d9b9526cae78e64fee11a1f6e1",
    ("inner-product-moments", "float"): "2c5005d8ae1ac857db751f236183bad6cf0c6b61202980b398cb13c743e52ba9",
    ("matrix", "float"): "920db01dbfb7fdaa934393d35156d6347fc109ea1794ca88eab3273a13deb9b6",
}

POINT_DIGESTS = {
    ("--xv", "3,4", "--yv", "3,4", "--p", "1"):
        "8044769be3f2faf025dbc49fdb15b2930318c414fed4768054edebc58919d672",
    ("--xv", "3,4", "--yv", "1,-2", "--mode", "float"):
        "096e303b65476c7d498c8b6e109a4128964092d2be840180971869f80f86af92",
    ("--xv", "3,4", "--yv", "3,4"):
        "62fbfc6669f1f6f6a6d2af9fc8c75edc573426ebf65b46b1668874ed65fb55b3",
}

# Float CSV reports at a tolerance no nonzero residual meets, so passing and
# failing rows mix: 2 of 1,365, 2,039 of 3,108, 606 of 900 and 30 of 35
# rows fail.  (The moment sweeps are left out: every float residual there
# is exactly 0, so they still pass.)
FAILING_TOLERANCE = "1e-300"
FAILING_DIGESTS = {
    ("graczyk",): "aac403bc52b07c2a248e8955ccdc8b7e64bbb94c26eaf0b6c3d927ec7d0f5549",
    ("rotation",): "fc479732143bf9628a3df1057d3a49b84a67f954a4093cc00e18b7247bafca8d",
    ("factorization",): "033166cecbaff21be1c7dce730a8786cd07440a7dcaf10896d300233cffa79ae",
    ("graczyk", "--xv", "3,4", "--yv", "1,-2"):
        "b7d615c8c3ceba6b1f74a6b127cc446ae8fab812ade866814c9ab14bab0311b1",
}

# An odd count large enough that every target draws its samples in
# several chunks.
SAMPLE_COUNT = "100001"
SAMPLE_SEED = "7"

SAMPLE_DIGESTS = {
    ("inner-product", "--ks"):
        "dbc33f9ff7921f81dadd6f0a64310f178b615a0f09e65dae513bee378e586d96",
    ("matrix",):
        "5bd7d9783f35adc11256c73c2b291ef684fc0016f538f79a870681c84cc32820",
    ("chi-merge",):
        "e91716f5675486664eecac4dadbe6706d3e1d850be73f3c31b0a855804ba48cb",
    # n = 1: the right-hand side draws no chi block.
    ("inner-product", "--xv", "2", "--yv", "5", "--format", "csv"):
        "1ddf5e186aaf00984be94a0795988136613f925c57b9e4b3cd0c422e34d819d4",
    ("matrix", "--xm", "1,2,3;4,5,6", "--ym", "0,1,0;1,0,1"):
        "4325198c06ba8661c1ed7f783c6db006a27341a61b29246ad72dec456e876205",
}

REPORT_COUNTS = {
    "graczyk": 1365,
    "rotation": 3108,
    "factorization": 900,
    "inner-product-moments": 189,
    "matrix": 42,
}

BENCH = Path(__file__).resolve().parent.parent / "bench"

RERECORD = (
    "report bytes changed; if the change is intended, bump spec_version "
    "and re-record the digests in this file"
)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not strict JSON")


def _strict_json(text: str):
    """The parsed report; NaN, Infinity and -Infinity raise ValueError."""
    return json.loads(text, parse_constant=_reject_constant)


def _sha256(out, argv) -> str:
    """Digest of a report file, which must parse as strict JSON unless it
    is a CSV report."""
    if "csv" not in argv:
        _strict_json(out.read_text())
    return hashlib.sha256(out.read_bytes()).hexdigest()


def _verify_sha256(tmp_dir, name: str, *argv: str, exit_code: int = 0) -> str:
    out = tmp_dir / name
    assert main(["verify", *argv, "--out", str(out)]) == exit_code
    return _sha256(out, argv)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_strict_json_rejects_nonfinite_constants(constant):
    assert _strict_json('{"tolerance": 1e308}') == {"tolerance": 1e308}
    with pytest.raises(ValueError, match="not strict JSON"):
        _strict_json(f'{{"tolerance": {constant}}}')


@pytest.fixture(scope="module")
def sweep_outputs(tmp_path_factory):
    """Digest of every sweep report, and the parsed exact JSON reports."""
    tmp_dir = tmp_path_factory.mktemp("reports")
    digests = {}
    for identity in SWEEPS:
        digests[identity, "exact"] = _verify_sha256(
            tmp_dir, f"{identity}.json", identity, "--mode", "exact"
        )
        digests[identity, "float"] = _verify_sha256(
            tmp_dir, f"{identity}.csv", identity, "--mode", "float", "--format", "csv"
        )
    exact = {
        identity: _strict_json((tmp_dir / f"{identity}.json").read_text())
        for identity in SWEEPS
    }
    return digests, exact


@pytest.mark.parametrize("key", SWEEP_DIGESTS, ids="-".join)
def test_sweep_report_bytes_are_pinned(sweep_outputs, key):
    digests, _ = sweep_outputs
    assert digests[key] == SWEEP_DIGESTS[key], RERECORD


@pytest.mark.parametrize("argv", POINT_DIGESTS, ids=" ".join)
def test_explicit_point_report_bytes_are_pinned(tmp_path, argv):
    digest = _verify_sha256(tmp_path, "point.json", "graczyk", *argv)
    assert digest == POINT_DIGESTS[argv], RERECORD


@pytest.mark.parametrize("argv", FAILING_DIGESTS, ids=" ".join)
def test_failing_report_bytes_are_pinned(tmp_path, argv):
    """Each of these runs exits 1, and its failing rows are pinned too."""
    digest = _verify_sha256(
        tmp_path, "failing.csv", *argv, "--mode", "float", "--tolerance", FAILING_TOLERANCE,
        "--format", "csv", exit_code=1,
    )
    assert digest == FAILING_DIGESTS[argv], RERECORD


@pytest.mark.parametrize("argv", SAMPLE_DIGESTS, ids=" ".join)
def test_sample_report_bytes_are_pinned(tmp_path, argv):
    out = tmp_path / "sample.report"
    seeded = ["--count", SAMPLE_COUNT, "--seed", SAMPLE_SEED, "--out", str(out)]
    assert main(["sample", *argv, *seeded]) == 0
    assert _sha256(out, argv) == SAMPLE_DIGESTS[argv], RERECORD


def _params(exact, identity: str) -> list[dict[str, str]]:
    return [row["params"] for row in exact[identity]["reports"]]


def _distinct(values) -> list:
    return list(dict.fromkeys(values))


def _runs(values) -> list:
    """The values with consecutive repeats collapsed."""
    return [value for value, _ in groupby(values)]


def _pairs_per_n(params) -> dict[str, int]:
    return {
        n: len(_runs((p["xv"], p["yv"]) for p in params if p["n"] == n))
        for n in _distinct(p["n"] for p in params)
    }


def test_report_counts(sweep_outputs):
    _, exact = sweep_outputs
    counts = {identity: exact[identity]["report_count"] for identity in SWEEPS}
    assert counts == REPORT_COUNTS


@pytest.fixture
def bench_reports(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import reports

    return reports


@pytest.mark.parametrize("identity", SWEEPS)
def test_exact_sweep_content_matches_bench_records(sweep_outputs, bench_reports, identity):
    """The bench counts an exact sweep as a failed operation unless its row
    count and content digest match the bench's own records."""
    rows = sweep_outputs[1][identity]["reports"]
    assert len(rows) == bench_reports.EXPECTED_REPORTS[identity]
    assert bench_reports.content_digest(rows) == bench_reports.load_digests()[identity]


def test_graczyk_description_matches_sweep(sweep_outputs):
    params = _params(sweep_outputs[1], "graczyk")
    grid = grid_description("graczyk")
    assert [str(n) for n in grid["n"]] == _distinct(p["n"] for p in params)
    assert [str(m) for m in grid["M"]] == _distinct(p["M"] for p in params)
    assert grid["p"] == _distinct(p["p"] for p in params)
    assert grid["pairs_per_n"] == _pairs_per_n(params)


def test_rotation_description_matches_sweep(sweep_outputs):
    params = _params(sweep_outputs[1], "rotation")
    grid = grid_description("rotation")
    assert [str(n) for n in grid["n"]] == _distinct(p["n"] for p in params)
    assert [str(m) for m in grid["m"]] == _distinct(p["m"] for p in params)
    assert [grid["p"]] == _distinct(p["p"] for p in params)
    labels = " ".join(_distinct(p["rotation"] for p in params))
    assert sorted(grid["t"]) == sorted(set(re.findall(r";([^)]+)\)", labels)))


def test_factorization_description_matches_sweep(sweep_outputs):
    params = _params(sweep_outputs[1], "factorization")
    grid = grid_description("factorization")
    assert grid["degree_max"] == max(int(p["m1"]) + int(p["m2"]) for p in params)
    assert grid["cs_pairs"] == _runs(f"({p['c']},{p['s']})" for p in params)
    points = [(point["x"], point["y"], point["p"]) for point in grid["points"]]
    assert points == _distinct((p["x"], p["y"], p["p"]) for p in params)


def test_moment_description_matches_sweep(sweep_outputs):
    params = _params(sweep_outputs[1], "inner-product-moments")
    grid = grid_description("inner-product-moments")
    assert [str(n) for n in grid["n"]] == _distinct(p["n"] for p in params)
    assert [str(m) for m in grid["M"]] == _distinct(p["M"] for p in params)
    assert grid["p"] == _distinct(p["p"] for p in params)
    assert set(_pairs_per_n(params).values()) == {grid["pairs_per_n"]}


def test_grid_description_rejects_an_unknown_identity():
    with pytest.raises(ValueError, match="unknown identity 'bogus'"):
        grid_description("bogus")


def test_matrix_description_matches_sweep(sweep_outputs):
    params = _params(sweep_outputs[1], "matrix")
    grid = grid_description("matrix")
    assert grid["shapes"] == _distinct(p["shape"] for p in params)
    assert [str(m) for m in grid["M"]] == _distinct(p["M"] for p in params)
