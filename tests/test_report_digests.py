"""Golden reports: every byte of the verify and sample reports is pinned.

The SHA-256 digests below are of the report files `ghkernel verify` writes
on the built-in grids and at three explicit points, and of five seeded
`ghkernel sample` reports.  Any change to the mathematics, the enumeration
order, the draw layout or the serialization changes a digest.  The same
exact reports then show that each `grid_description` tells the truth about
the grid its sweep enumerates.
"""

from __future__ import annotations

import hashlib
import json
import re
from itertools import groupby

import pytest

from ghkernel.cli import main
from ghkernel.sweeps import SWEEPS, grid_description

SWEEP_DIGESTS = {
    ("graczyk", "exact"): "715c36ac0c48e2bf4f764dcbf7ac956927a981a5c3248711ed76674b8ebc2077",
    ("rotation", "exact"): "f97876ed56db8a741a012e9ff2b5115d1bf297e0f72b6da0767be3a88d004634",
    ("factorization", "exact"): "f1a3bc6b20e5a1f6db6a24ee47f1199af12b5bb24ce8296f27019350cac09c81",
    ("inner-product-moments", "exact"): "a24515d085621d52bb54318645038d2d048dc67e2e481575581559eff9f3161a",
    ("matrix", "exact"): "43bb0ba65e4166599577317ac8cb33d6efd4d9a748a57ac2501702063db62f84",
    ("graczyk", "float"): "4467c7f889b754aca26f74ddaa09a74c38fa18af77c0614d56e4837cee83ee82",
    ("rotation", "float"): "45734e68918075067d6d2e54f2b8e7551a12bceb6d36da238a31d16566f12972",
    ("factorization", "float"): "2620fcbbecbef082149b1cb21a48ee87c39148f518c65950ab09ecee099c5646",
    ("inner-product-moments", "float"): "5e8eec36cd72cf9f16db53f91c0b704606b6612c1a306eb5a39b3951bd646e98",
    ("matrix", "float"): "3a7b7e26bef1ab5de2f95dbfe7bbe2ace3f361554bc8e4febf8585dca5be90cb",
}

POINT_DIGESTS = {
    ("--xv", "3,4", "--yv", "3,4", "--p", "1"):
        "dcbab88ee6ff259d3d445dc953f598ca5de9d74e0dd4f606ef1fd9be4fba82e8",
    ("--xv", "3,4", "--yv", "1,-2", "--mode", "float"):
        "b98ce3f09f73068b15e8c40c3df604ff583e3de106c4570a33ab64da1a33936a",
    ("--xv", "3,4", "--yv", "3,4"):
        "7800d1b5ba2f92e89029b03da705e51bce699ae7a25c6bee9dccb774ffa1df58",
}

# An odd count large enough that every target draws its samples in
# several chunks.
SAMPLE_COUNT = "100001"
SAMPLE_SEED = "7"

SAMPLE_DIGESTS = {
    ("inner-product", "--ks"):
        "e2cce0b31bddc1b5a25c0dee047f82abdbd956165f96c82c6f0f1f6826470050",
    ("matrix",):
        "0474809b0685191a300f6371983f515ae14b9f4cc11ad0f9b97d6efdac71656c",
    ("chi-merge",):
        "c23705394b4675b20c46e61d15533e9bebadb73539dc932ed3b60428e1c04b29",
    # n = 1: the right-hand side draws no chi block.
    ("inner-product", "--xv", "2", "--yv", "5", "--format", "csv"):
        "cdbc3466c737caeed4350bbaf422809214ed259d1b9338cb454a1aff0071e53d",
    ("matrix", "--xm", "1,2,3;4,5,6", "--ym", "0,1,0;1,0,1"):
        "0ecdc94a610632efc778a622cf4497311c86fcd64c7331e0890328b54ac1cd46",
}

REPORT_COUNTS = {
    "graczyk": 1365,
    "rotation": 3108,
    "factorization": 900,
    "inner-product-moments": 189,
    "matrix": 42,
}

RERECORD = (
    "report bytes changed; if the change is intended, bump spec_version "
    "and re-record the digests in this file"
)


def _verify_sha256(tmp_dir, name: str, *argv: str) -> str:
    out = tmp_dir / name
    assert main(["verify", *argv, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


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
        identity: json.loads((tmp_dir / f"{identity}.json").read_text())
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


@pytest.mark.parametrize("argv", SAMPLE_DIGESTS, ids=" ".join)
def test_sample_report_bytes_are_pinned(tmp_path, argv):
    out = tmp_path / "sample.report"
    seeded = ["--count", SAMPLE_COUNT, "--seed", SAMPLE_SEED, "--out", str(out)]
    assert main(["sample", *argv, *seeded]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SAMPLE_DIGESTS[argv], RERECORD


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


def test_matrix_description_matches_sweep(sweep_outputs):
    params = _params(sweep_outputs[1], "matrix")
    grid = grid_description("matrix")
    assert grid["shapes"] == _distinct(p["shape"] for p in params)
    assert [str(m) for m in grid["M"]] == _distinct(p["M"] for p in params)
