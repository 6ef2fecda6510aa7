"""Each sweep builds a grid point's tables once.

A vector pair is polarized once for all its (M, p) checks, and each Givens
block is built once per set of default rotations; each rotation is the
left fold of its blocks on Gaussian-integer (float: double) pairs.  The
rotation rules build their rows once per rotation and per (c, s, point),
and the pair rules fold each side once per (pair, p).
Counting the calls keeps a per-check rebuild from coming back unnoticed;
the report digests pin what the sweeps return.
"""

import re
from functools import reduce

import pytest

from ghkernel import identities, sweeps
from ghkernel.identities import complex_givens, mat_mul, orthogonality_check
from ghkernel.scalars import EXACT, FLOAT, parse_scalar


def counting(monkeypatch, module, name):
    """Replace module.name with a wrapper that records each call's args."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize(
    "identity, distinct_pairs",
    [("graczyk", 39), ("inner-product-moments", 9), ("matrix", 6)],
)
def test_each_vector_pair_is_polarized_once(monkeypatch, mode, identity, distinct_pairs):
    calls = counting(monkeypatch, identities, "polarization_pair")
    sweeps.SWEEPS[identity](mode)
    assert len(calls) == len(set(calls)) == distinct_pairs


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize(
    "identity, pairs, p_count",
    [
        ("graczyk", 39, len(sweeps.P_GRID)),
        ("inner-product-moments", 9, len(sweeps.MOMENT_P_VALUES)),
        ("matrix", 6, 1),
    ],
)
def test_pair_rules_fold_each_side_once_per_pair_and_p(
    monkeypatch, mode, identity, pairs, p_count
):
    """Both Graczyk sides, which the moment identities read too, are one
    binomial fold each per (pair, p): the left side over the coordinates'
    rows, the right side over a weight row and the pair's row."""
    calls = counting(monkeypatch, identities, "_binomial_fold")
    sweeps.SWEEPS[identity](mode)
    assert len(calls) == 2 * pairs * p_count


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("n, blocks, products", [(2, 4, 144), (3, 12, 144)])
def test_each_givens_block_is_built_once(monkeypatch, mode, n, blocks, products):
    givens = counting(monkeypatch, sweeps, "complex_givens")
    pair_mat_mul = counting(monkeypatch, sweeps, "_pair_mat_mul")
    rotations = sweeps.default_rotations(n, mode)
    assert len(givens) == len(set(givens)) == blocks
    # One product per block after the first, in every rotation's fold.
    folds = sum(
        (len(planes) - 1) * len(sweeps.GIVENS_T_VALUES) ** len(planes)
        for planes in sweeps.ROTATION_PLANES[n]
    )
    assert len(pair_mat_mul) == folds == products
    assert len({label for label, _ in rotations}) == len(rotations)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("identity, setups", [("rotation", 176), ("factorization", 20)])
def test_rotation_rules_share_one_setup_per_grid_object(monkeypatch, mode, identity, setups):
    """Both rotation rules build their rows through ``_rotated_rows``: once
    per rotation, and once per (c, s, point)."""
    calls = counting(monkeypatch, identities, "_rotated_rows")
    sweeps.SWEEPS[identity](mode)
    assert len(calls) == setups


LABEL_BLOCK = re.compile(r"G\((\d+),(\d+);([^)]+)\)")


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("n", [2, 3])
def test_pair_products_equal_scalar_products(mode, n):
    """Each default rotation, multiplied on pairs, is the left fold of
    mat_mul over the Scalar blocks its label names, to the last bit."""

    def bits(matrix):
        return [[(e.mode, repr(e.re), repr(e.im)) for e in row] for row in matrix]

    for label, rot in sweeps.default_rotations(n, mode):
        planes = LABEL_BLOCK.findall(label)
        assert "*".join(f"G({i},{j};{t})" for i, j, t in planes) == label
        blocks = [
            complex_givens(n, int(i), int(j), sweeps.in_mode([parse_scalar(t)], mode)[0])
            for i, j, t in planes
        ]
        assert bits(rot) == bits(reduce(mat_mul, blocks))
        assert rot[0][0].mode == mode
        assert orthogonality_check(rot)
