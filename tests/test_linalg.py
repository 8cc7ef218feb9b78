import random
from fractions import Fraction
from math import lcm

import pytest

from barl1.barcomplex import Chain, boundary, l1_norm
from barl1.fileio import chain_from_records
from barl1.groups import cyclic_group, identity_hom
from barl1.l1opt import fill_min
from barl1.linalg import (common_denominator, exact, gauss_jordan, int_row,
                          kernel_line, rank_factorization, rref, solve_square)
from barl1.mitosis import (PipelineConfig, mitosis_of_finite_abelian,
                           primitive_pipeline)
from helpers import rank_int


def _random_int_matrix(rng, m, n, lo=-4, hi=4):
    return [[rng.randrange(lo, hi + 1) for _ in range(n)] for _ in range(m)]


def test_rank_int_matches_fraction_rank():
    rng = random.Random(41)
    for _ in range(200):
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        a = _random_int_matrix(rng, m, n)
        assert rank_int(a) == len(rref([[Fraction(v) for v in row]
                                        for row in a])[1])


def test_rank_edge_cases():
    assert rank_int([]) == 0
    assert rank_int([[0, 0], [0, 0]]) == 0
    assert rank_int([[1, 2], [2, 4]]) == 1
    assert rank_int([[0, 1], [1, 0], [1, 1]]) == 2


def test_rref_pivots():
    rows, pivots = rref([[Fraction(2), Fraction(4)],
                         [Fraction(1), Fraction(2)]])
    assert pivots == [0]
    assert rows[0] == [Fraction(1), Fraction(2)]


def test_rref_random():
    # the integer-row rref against its definition and against rank_int
    rng = random.Random(17)
    for _ in range(150):
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        a = _random_int_matrix(rng, m, n, -3, 3)
        if rng.random() < 0.3:
            a.append([x + y for x, y in zip(a[0], a[-1])])
        red, pivots = rref(a)
        rank = rank_int(a)
        assert len(pivots) == rank and len(red) == len(a)
        assert pivots == sorted(set(pivots))
        assert all(not any(row) for row in red[rank:])
        for i, c in enumerate(pivots):
            assert red[i][c] == 1 and not any(red[i][:c])
            assert all(red[k][c] == 0 for k in range(len(red)) if k != i)
            # each result row lies in the row span of a
            den = lcm(*(v.denominator for v in red[i]))
            assert rank_int(a + [[int(v * den) for v in red[i]]]) == rank
        # each row of a is the combination of the result rows that its
        # entries in the pivot columns give
        for row in a:
            assert [sum(row[c] * red[i][j] for i, c in enumerate(pivots))
                    for j in range(n)] == row


def test_gauss_jordan_kernel_line_random():
    # the driver's pivots against rank_int (Bareiss), and the kernel
    # line of its reduced rows against substitution
    rng = random.Random(19)
    lines = 0
    for _ in range(150):
        n = rng.randrange(1, 6)
        a = [[Fraction(rng.randrange(-2, 3), rng.randrange(1, 3))
              for _ in range(n)] for _ in range(n - 1)]
        ints = [int_row(row, 0)[0] for row in a]
        given = [dict(row) for row in ints]
        rows, pivots = gauss_jordan(ints)
        assert ints == given  # the given rows are left as they are
        if rank_int([[int(v * 2) for v in row] for row in a], n) < n - 1:
            assert None in pivots
            continue
        assert None not in pivots
        lines += 1
        y = kernel_line(rows, pivots, n)
        assert any(y) and all(isinstance(v, int) for v in y)
        assert all(sum(v * w for v, w in zip(row, y)) == 0 for row in a)
    assert 0 < lines < 150


def test_solve_square_and_invert():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    x = solve_square(a, [Fraction(3), Fraction(2)])
    assert x == [Fraction(1), Fraction(1)]
    assert solve_square([[Fraction(1), Fraction(2)],
                         [Fraction(2), Fraction(4)]],
                        [Fraction(0), Fraction(0)]) is None


def test_solve_square_and_invert_random():
    # the integer-row kernel against rank_int (Bareiss) on singularity
    # and against exact substitution otherwise
    rng = random.Random(13)
    singular = 0
    for _ in range(150):
        n = rng.randrange(1, 6)
        a = [[Fraction(rng.randrange(-2, 3), rng.randrange(1, 3))
              for _ in range(n)] for _ in range(n)]
        b = [Fraction(rng.randrange(-4, 5)) for _ in range(n)]
        x = solve_square(a, b)
        scaled = [[int(v * 4) for v in row] for row in a]
        if rank_int(scaled) < n:
            assert x is None
            singular += 1
            continue
        for i in range(n):
            assert sum(a[i][j] * x[j] for j in range(n)) == b[i]
    assert 0 < singular < 150
    assert solve_square([], []) == []


def test_rank_factorization_reconstructs():
    rng = random.Random(9)
    for _ in range(60):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        w = [[Fraction(rng.randrange(-3, 4)) for _ in range(n)]
             for _ in range(m)]
        pairs = rank_factorization(w)
        assert len(pairs) == len(rref(w)[1])
        acc = [[Fraction(0)] * n for _ in range(m)]
        for col, row in pairs:
            for i in range(m):
                for j in range(n):
                    acc[i][j] += col[i] * row[j]
        assert acc == w


def test_rank_factorization_factors_span_column_space():
    # every left factor must be a combination of columns of w
    w = [[Fraction(1), Fraction(2), Fraction(3)],
         [Fraction(0), Fraction(1), Fraction(1)],
         [Fraction(1), Fraction(3), Fraction(4)]]
    pairs = rank_factorization(w)
    cols = [[w[i][j] for i in range(3)] for j in range(3)]
    base_rank = len(rref([list(c) for c in zip(*cols)])[1])
    for col, _ in pairs:
        aug = [list(c) for c in zip(*(cols + [col]))]
        assert len(rref(aug)[1]) == base_rank


def test_exact_rejects_floats():
    assert exact(3) == 3 and exact(Fraction(1, 3)) == Fraction(1, 3)
    assert exact("2/5") == Fraction(2, 5)
    for bad in (0.5, 1.0):
        with pytest.raises(TypeError, match="float"):
            exact(bad)
        with pytest.raises(TypeError, match="float"):
            int_row([1, bad], 1)
        with pytest.raises(TypeError, match="float"):
            solve_square([[1]], [bad])


def _one_rule(values):
    """Whether every value is an int, or a Fraction that is not one."""
    return all(type(v) is int or (type(v) is Fraction and v.denominator > 1)
               for v in values)


def test_integral_values_are_ints():
    assert type(exact(Fraction(4, 2))) is int and exact(Fraction(4, 2)) == 2
    with pytest.raises(TypeError, match="bool"):
        exact(True)
    G2 = cyclic_group(2)
    # d(1,1) = 2(1) - (0) is filled by (1,1) itself, and the cycle
    # ((0,1) - (1,0))/2 by a half
    for z in [boundary(Chain.single(G2, (1, 1))),
              Chain(G2, 2, {(0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 2)})]:
        assert _one_rule(fill_min(z).c.coeffs.values())
    red, _ = rref([[2, 4, 1], [1, 3, Fraction(1, 2)], [3, 7, Fraction(3, 2)]])
    assert _one_rule(v for row in red for v in row)
    for col, row in rank_factorization([[Fraction(2), 4], [Fraction(6, 3), 4]]):
        assert _one_rule(col) and _one_rule(row)
    h = identity_hom(G2)
    cfg = PipelineConfig(h, h, h, mitosis_of_finite_abelian(G2))
    cert = primitive_pipeline(
        boundary(Chain(G2, 3, {(1, 1, 1): 1, (1, 0, 1): 2})), cfg)
    assert _one_rule(cert.primitive.coeffs.values())
    assert _one_rule(cert.target.coeffs.values())
    read = chain_from_records(G2, 1, [{"coeff": "4/2", "tuple": ["1"]}])
    assert _one_rule(read.coeffs.values()) and read.coeffs[(1,)] == 2
    norm = l1_norm(Chain(G2, 1, {(1,): 2, (0,): -1}))
    assert type(norm) is Fraction and norm == 3


def test_common_denominator_gives_ints():
    ints = {1: 2, 2: -3}
    L, (same,) = common_denominator(ints)
    assert L == 1 and same is ints
    # an integral Fraction, as 1/2 + 1/2 sums to, comes back an int too
    L, (a, b) = common_denominator({1: Fraction(1, 2) + Fraction(1, 2)},
                                   {2: Fraction(-5, 3), 3: 4})
    assert L == 3 and a == {1: 3} and b == {2: -5, 3: 12}
    assert all(type(v) is int for m in (a, b) for v in m.values())
    L, (one,) = common_denominator({1: Fraction(1, 1)})
    assert L == 1 and one == {1: 1} and type(one[1]) is int
    assert int_row({0: Fraction(1, 2), 3: 2}, Fraction(-1, 3)) == (
        {0: -3, 3: -12}, 2, 6)
