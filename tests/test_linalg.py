import random
from fractions import Fraction
from math import lcm

from barl1.linalg import null_vector, rank_factorization, rref, solve_square
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


def test_null_vector_random():
    rng = random.Random(19)
    lines = 0
    for _ in range(150):
        n = rng.randrange(1, 6)
        a = [[Fraction(rng.randrange(-2, 3), rng.randrange(1, 3))
              for _ in range(n)] for _ in range(n - 1)]
        y = null_vector(a, n)
        if rank_int([[int(v * 2) for v in row] for row in a], n) < n - 1:
            assert y is None
            continue
        lines += 1
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
