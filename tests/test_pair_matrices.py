"""Both rotation rules run on one pair-matrix layer.

The rotation rule and the factorization rule share one set-up,
``_rotated_rows``: the factorization rule is the rotation rule's set-up at
n = 2 with O = [[c, -s], [s, c]].  ``orthogonality_check`` runs on the
same pair matrices; it must give the verdicts of O O^t = O^t O = I taken
with ``mat_mul`` on Scalars, which this file keeps as its reference.
``tests/test_sweep_tables.py`` counts the set-up's calls.
"""

from fractions import Fraction

import pytest

from ghkernel import sweeps
from ghkernel.identities import (
    ORTHOGONALITY_TOLERANCE,
    complex_givens,
    mat_identity,
    mat_mul,
    mat_transpose,
    orthogonality_check,
)
from ghkernel.scalars import EXACT, FLOAT, exact, flt, magnitude


def reference_orthogonal(o, tolerance=ORTHOGONALITY_TOLERANCE):
    """O O^t = O^t O = I on Scalars: exactly, or within `tolerance` per entry."""
    mode = o[0][0].mode
    target = mat_identity(len(o), mode)
    for product in (mat_mul(o, mat_transpose(o)), mat_mul(mat_transpose(o), o)):
        for prow, trow in zip(product, target):
            for got, want in zip(prow, trow):
                if got != want if mode == EXACT else magnitude(got - want) > tolerance:
                    return False
    return True


def cayley_blocks(mode):
    ts = sweeps.in_mode(sweeps._givens_ts(), mode)
    return [
        complex_givens(n, i, j, t)
        for n in (2, 3)
        for i, j in ((0, 1), (0, 2), (1, 2))
        if j < n
        for t in ts
    ]


def cs_blocks(mode):
    return [((c, -s), (s, c)) for c, s in sweeps.default_cs_pairs(mode)]


def all_matrices(mode):
    rotations = [rot for n in (2, 3) for _, rot in sweeps.default_rotations(n, mode)]
    return rotations + cayley_blocks(mode) + cs_blocks(mode)


def shifted(o, delta):
    """O with `delta` added to its top-left entry."""
    corner = o[0][0] + delta
    return ((corner, *o[0][1:]), *o[1:])


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_pair_check_matches_scalar_reference(mode):
    matrices = all_matrices(mode)
    assert len(matrices) == 176 + 16 + 10
    for o in matrices:
        assert orthogonality_check(o) is reference_orthogonal(o) is True


def test_exact_entry_off_by_a_millionth_fails():
    for o in all_matrices(EXACT):
        off = shifted(o, exact(Fraction(1, 10**6)))
        assert orthogonality_check(off) is reference_orthogonal(off) is False


@pytest.mark.parametrize("delta, passes", [(1e-13, True), (1e-11, False)])
def test_float_entry_off_by_rounding_passes_and_beyond_fails(delta, passes):
    # Blocks, whose entries are at most 5/3 in modulus: a shift of 1e-13
    # moves O O^t by at most 4e-13, and one of 1e-11 moves some entry of
    # its first row by at least 1e-11 / sqrt(2).
    for o in cayley_blocks(FLOAT) + cs_blocks(FLOAT):
        off = shifted(o, flt(delta))
        assert orthogonality_check(off) is reference_orthogonal(off) is passes


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_non_square_matrix_raises(mode):
    make = exact if mode == EXACT else flt
    wide = tuple(tuple(make(v) for v in row) for row in ((1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError, match="square"):
        orthogonality_check(wide)
