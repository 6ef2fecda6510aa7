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
    ("graczyk", "exact"): "01dab28c7156934551d8182387540078b42dcc7cf0c298c89165b61fbb0aa86c",
    ("rotation", "exact"): "da53121e4dfce52d7a5e769b4f042feb81895ef13feebd4ba21c0b978830bd67",
    ("factorization", "exact"): "46658cd44435a6cd8eda1d0a8c185b2e6c3afe23ea7d2f22bcdd883a38bd6060",
    ("inner-product-moments", "exact"): "6bcc08108ddf69cf9f983b513eac29e0e533461bfb832480e76555577c154ccf",
    ("matrix", "exact"): "98e80b815b60d1dad3e0962ea4dd4267784941c7539b6f33e6cf83ca0b849646",
    ("graczyk", "float"): "5268f91089972489257000c65d51e204027e95585d9e337620c29f42f2ef4444",
    ("rotation", "float"): "9acc1ca90075947bda5717fd798105d6cc39508b5cdb1994fdca866b427342ea",
    ("factorization", "float"): "098b9d2efa7d5e46d39c52433adf4a67291f1f6e4e63a8ecf95a54b9739e6b1f",
    ("inner-product-moments", "float"): "c50ab4c5d4a78476bf4535963aa7f269270b6db5bd6cb8872804fe58f4d63da7",
    ("matrix", "float"): "947161477ddc06f936461bb4bc0e5e86b976b2f0aea9ff195187e74b2e066f3e",
}

POINT_DIGESTS = {
    ("--xv", "3,4", "--yv", "3,4", "--p", "1"):
        "754e2a86a69d66db7d88e6d38a617b535272870d3d03ac6aaa143dddc622795a",
    ("--xv", "3,4", "--yv", "1,-2", "--mode", "float"):
        "424b12873de5e6bd1a17cdf03bed21cedebd8ee4d752e6446d63849c294c2595",
    ("--xv", "3,4", "--yv", "3,4"):
        "deb439918640eb89e368cabb31232fa00f675d36ec53e10b24c89f4789de7654",
}

# An odd count large enough that every target draws its samples in
# several chunks.
SAMPLE_COUNT = "100001"
SAMPLE_SEED = "7"

SAMPLE_DIGESTS = {
    ("inner-product", "--ks"):
        "ee051ee5bc2fdcda7f7995b1af43fedc76ea2f037b376928d422cddd07579218",
    ("matrix",):
        "5a21118c339cfd91fdfbebc0d5d71c4ad8913c17e892a093ee377ce87857a569",
    ("chi-merge",):
        "98cfebc89ee6afca03af013bd50da737d495c1b0a57c9555d6e4eca68f13844a",
    # n = 1: the right-hand side draws no chi block.
    ("inner-product", "--xv", "2", "--yv", "5", "--format", "csv"):
        "651741104643dbdf019aaa97763a8facdf3d19471f19764f9e7abdb7313b15d9",
    ("matrix", "--xm", "1,2,3;4,5,6", "--ym", "0,1,0;1,0,1"):
        "61d8b38518d72de78b62a589016b38719866feb979d0aa64805cc0f611b37985",
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
