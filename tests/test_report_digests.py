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
    ("graczyk", "exact"): "a35ccd1c6272664fcd8130a5bfcb59451a9bf9d8d775c6a39704f90c5cdb2581",
    ("rotation", "exact"): "8aaf6d748b42e44b8fa97c8c8d4eb8a1f198603e1bb384c8e6500290d35134e3",
    ("factorization", "exact"): "d4cfd933495813cfa018076fc705d03c24e205abf8a3fa1ca739f027194668a2",
    ("inner-product-moments", "exact"): "88db07d49b0e985d46e34cb0cb82294247d0f4bf9c9f540aa3e13b281b5a87ea",
    ("matrix", "exact"): "b6382bfd497751988634d4bb8526703e06921ffc89fa240ff5175a2a776e0733",
    ("graczyk", "float"): "a1c997ec06c31c148c1328d712ad32a8f41de6aa38cba428baa5e291a951b5dd",
    ("rotation", "float"): "54929d9c2474ef0e7b276d6731c24f45e20ed4a32c9f84134049c10517fc6601",
    ("factorization", "float"): "6500cbadc3f59498bf81a942a2058946f136f92335c95e31c785c0a49c3493cd",
    ("inner-product-moments", "float"): "75f813956ef33a9e40f5751a6c5f62ec9633388fb599d1bd1d41a6e076696e99",
    ("matrix", "float"): "5090ef607cb94d97a1c5d543002fb19a18f96a427fe3a2fceff93612f9cdf50e",
}

POINT_DIGESTS = {
    ("--xv", "3,4", "--yv", "3,4", "--p", "1"):
        "02654a116bda4e0a154b039e717d47b0ba2b5d5763b89e98efb1bcdd131944f2",
    ("--xv", "3,4", "--yv", "1,-2", "--mode", "float"):
        "841eb7fc826422798fc68c78f1f0df9270f48919dfa8171bc97aca8476a2a77e",
    ("--xv", "3,4", "--yv", "3,4"):
        "7a3f99eae0b7a8d91141f0c1c794d032de351df3ac351744f3586486f21d3a25",
}

# An odd count large enough that every target draws its samples in
# several chunks.
SAMPLE_COUNT = "100001"
SAMPLE_SEED = "7"

SAMPLE_DIGESTS = {
    ("inner-product", "--ks"):
        "33b28141b7c60def9a1d4fe1e562327d72a81701d4a90fbd8a81d8491e993d77",
    ("matrix",):
        "71ae0df72700c883bf6e9cbc16ff7e0390e323cbe15d6298b22c41595f3613f2",
    ("chi-merge",):
        "966023e344bfcec17566f945b4ba4f80ef203159119b9efcac3a55d16fe809b6",
    # n = 1: the right-hand side draws no chi block.
    ("inner-product", "--xv", "2", "--yv", "5", "--format", "csv"):
        "43eedc9bd051ce733b37ae81204eedb234e71708b8d0ff29d947b422ac33a034",
    ("matrix", "--xm", "1,2,3;4,5,6", "--ym", "0,1,0;1,0,1"):
        "fc62d2737441e29caf114d3c41f702c801d6feab83abc4496c69d528aabb235e",
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
