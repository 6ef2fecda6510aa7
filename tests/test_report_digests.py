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
    ("graczyk", "exact"): "245e2444164c8fbe80bd3b12e8ca8b06d96f355b41d06b13984f87cfd0ef039d",
    ("rotation", "exact"): "4b6eab6e25b731bd73784d6840fbc85cdcbe9007dbedb227224cbb748b7e8e5a",
    ("factorization", "exact"): "02a6df49ed9e9a364adc64a4f107dcdb0770e7b4c08199304751f2fd89d47465",
    ("inner-product-moments", "exact"): "8e480fc51a917209a4baa6b83cb0464b0078d312f892e69ab829b18d6e3eec6e",
    ("matrix", "exact"): "4278bcf4cc3158dfaa9c551ab8221fd1ded73c5341dc1fe478b711a24c9dae4c",
    ("graczyk", "float"): "1c0d60d3af509199a5cef241388453ad765a625b8452eb2ece32cbec843118a9",
    ("rotation", "float"): "c8217d238c01b992c8144ae940d141e39122b5033954c6a6058fc62a69ba19f3",
    ("factorization", "float"): "1db474cbe3ec60a505fff10580ac75164c7b67c2a246e44faeb8957d3b439047",
    ("inner-product-moments", "float"): "40e7a3629776ee215cf40f81a120156e9f8d9ca2295e0ded2f1095ed4e6cb540",
    ("matrix", "float"): "b3074d18f0576d7372a2df3d6cdc9ed6f07de06f50eb0903c2df83de091b254a",
}

POINT_DIGESTS = {
    ("--xv", "3,4", "--yv", "3,4", "--p", "1"):
        "ddb838dd28343a49f0bd548a87e8747cbbfaa31dfa3746d8dd1c07b05a6db618",
    ("--xv", "3,4", "--yv", "1,-2", "--mode", "float"):
        "d8cf3019b63aad79b115868a11189edccb86e97a61480c55cda75f056a9c2a99",
    ("--xv", "3,4", "--yv", "3,4"):
        "e2ba91d39e2960d322d5efaa93c0517472de82e154737004b36390970b667b23",
}

# An odd count large enough that every target draws its samples in
# several chunks.
SAMPLE_COUNT = "100001"
SAMPLE_SEED = "7"

SAMPLE_DIGESTS = {
    ("inner-product", "--ks"):
        "35d4c819c4587cd8478f72a2d249170c9ba37df112d25cba9a12db0b669b557d",
    ("matrix",):
        "bc4381e3edf9748a23f9586b03958f9ce4b6095bd45f389d1a71294b717ecf78",
    ("chi-merge",):
        "3cd80eee5cc36b8b93487c0ffa9050f590c08f8e4499cc99d2742f17629d65ad",
    # n = 1: the right-hand side draws no chi block.
    ("inner-product", "--xv", "2", "--yv", "5", "--format", "csv"):
        "5cb53a78985abf23943b3539c93b387529cf4ca32cb0518f835634ed5b872edd",
    ("matrix", "--xm", "1,2,3;4,5,6", "--ym", "0,1,0;1,0,1"):
        "0aedcdb3fcb2eb89c66cc9342277b6c8a591cf667d315b45262cfd54033e31dd",
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
