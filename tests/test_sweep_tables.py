"""Each sweep builds a grid point's tables once.

A vector pair is polarized once for all its (M, p) checks, and each Givens
block is built once per set of default rotations, with every prefix
product multiplied once.  Counting the calls keeps a per-check rebuild
from coming back unnoticed; the report digests pin what the sweeps return.
"""

import pytest

from ghkernel import identities, sweeps
from ghkernel.scalars import EXACT, FLOAT


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
@pytest.mark.parametrize("n, blocks, products", [(2, 4, 80), (3, 12, 96)])
def test_each_givens_block_and_product_is_built_once(monkeypatch, mode, n, blocks, products):
    givens = counting(monkeypatch, sweeps, "complex_givens")
    mat_mul = counting(monkeypatch, sweeps, "mat_mul")
    rotations = sweeps.default_rotations(n, mode)
    assert len(givens) == len(set(givens)) == blocks
    assert len(mat_mul) == products
    assert len({label for label, _ in rotations}) == len(rotations)
