"""Smith normal form against the sympy oracle, plus the integer solvers."""

import random

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from triadeform import snf


def _random_matrix(rng, rows, cols, span=9):
    return [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 3)])
def test_invariant_factors_match_sympy(shape, rng):
    rows, cols = shape
    for _ in range(25):
        m = _random_matrix(rng, rows, cols)
        expected = [int(x) for x in smith_normal_form(sympy.Matrix(m)).diagonal()]
        # invariant_factors keeps only the nontrivial (> 1) chain entries
        expected = [abs(x) for x in expected if abs(x) > 1]
        assert snf.invariant_factors(m) == expected


def test_snf_transform_identity(rng):
    # U m V = D with U, V unimodular
    for _ in range(25):
        m = _random_matrix(rng, 3, 4)
        u, d, v = snf.smith_normal_form(m)
        assert snf.mat_mul(snf.mat_mul(u, m), v) == d
        assert sympy.Matrix(u).det() in (1, -1)
        assert sympy.Matrix(v).det() in (1, -1)
        diag = snf.diagonal_of(d)
        for a, b in zip(diag, diag[1:]):
            if a and b:
                assert b % a == 0


def test_solve_integer_finds_solutions(rng):
    for _ in range(40):
        m = _random_matrix(rng, 3, 3, span=5)
        x = [rng.randint(-4, 4) for _ in range(3)]
        target = snf.mat_vec(m, x)
        sol = snf.solve_integer(m, target)
        assert sol is not None
        assert snf.mat_vec(m, sol) == target


def test_solve_integer_detects_unsolvable():
    # 2x = 1 has no integer solution
    assert snf.solve_integer([[2]], [1]) is None
    assert snf.solve_integer([[2, 0], [0, 3]], [1, 1]) is None
    assert snf.solve_integer([[2, 0], [0, 3]], [4, -9]) == [2, -3]


def test_kernel_basis_annihilates(rng):
    for _ in range(20):
        m = _random_matrix(rng, 2, 4, span=4)
        for vec in snf.kernel_basis(m):
            assert snf.mat_vec(m, vec) == [0, 0]
    assert len(snf.kernel_basis([[1, 0], [0, 1]])) == 0


@pytest.fixture
def rng():
    return random.Random(99)
