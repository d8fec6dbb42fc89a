"""Dense Fraction grids: the oracle for the sparse constant matrices of
braidreps and hecke.

Each matrix is a list of rows and each product the dense triple loop, every
product formed.  hecke_grids and b3_grids build the generators as the grid
code did before the sparse walk, and grid_problems runs the relations of
InfinitesimalRep.validate, in the same order, on grids.
"""

from fractions import Fraction

from gtassoc.hecke import semi_normal_block
from gtassoc.tableaux import axial_distance, tableaux


def mat_mul(a, b):
    out = []
    for ai in a:
        row = []
        for j in range(len(b[0])):
            acc = ai[0] * b[0][j]
            for t in range(1, len(b)):
                acc = acc + ai[t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_identity(n):
    return [[Fraction(i == j) for j in range(n)] for i in range(n)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def is_zero(a):
    return not any(any(row) for row in a)


def commutator(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(mat_mul(a, b), mat_mul(b, a))]


def hecke_grids(shape):
    """(s, t): the grids of s_1..s_{n-1} on the semi-normal tableau basis, and
    t_ij = 2 (i j) with (i j) = s_{j-1} (i j-1) s_{j-1}."""
    tabs = tableaux(shape)
    index = {t: i for i, t in enumerate(tabs)}
    N, n = len(tabs), shape.n
    s = []
    for r in range(1, n):
        m = [[Fraction(0)] * N for _ in range(N)]
        for t in tabs:
            i = index[t]
            if t.col(r) == t.col(r + 1):
                m[i][i] += 1
            elif t.line(r) == t.line(r + 1):
                m[i][i] -= 1
            else:
                j = index[t.swap_adjacent(r)]
                if j < i:
                    continue
                blk = semi_normal_block(axial_distance(t, r))
                m[i][i] += blk[0][0]
                m[i][j] += blk[0][1]
                m[j][i] += blk[1][0]
                m[j][j] += blk[1][1]
        s.append(m)

    def transposition(i, j):
        if j == i + 1:
            return s[i - 1]
        return mat_mul(s[j - 2], mat_mul(transposition(i, j - 1), s[j - 2]))

    t = {(i, j): [[2 * v for v in row] for row in transposition(i, j)]
         for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    return s, t


def b3_grids(v):
    """(s, t): the grids of the 3-dimensional representation at rational v."""
    s1 = [[Fraction(1), 0, 0], [0, Fraction(1), 0], [0, 0, Fraction(-1)]]
    q = Fraction(1, 4) / v
    s2 = [
        [q * (v - 3), q * 3 * (v - 1), q * 3 * (v + 1)],
        [q * 3 * (v + 1), q * (3 + v), q * (-3) * (v + 1)],
        [q * 2 * v, q * 2 * v * (1 - v) / (1 + v), q * 2 * v],
    ]
    t12 = [[Fraction(3 + v, 2), 0, 0], [0, Fraction(3 - v, 2), 0], [0, 0, Fraction(0)]]
    t13 = mat_mul(s2, mat_mul(t12, s2))
    return [s1, s2], {(1, 2): t12, (1, 3): t13, (2, 3): mat_mul(s1, mat_mul(t13, s1))}


def grid_problems(n, s, t):
    """The relations of InfinitesimalRep.validate on grids s[0..n-2] and
    t[(i, j)], i < j: the list of the ones that fail, in validate's order."""
    problems = []
    ident = mat_identity(len(s[0]))
    s = {i + 1: m for i, m in enumerate(s)}

    def tm(i, j):
        return t[min(i, j), max(i, j)]

    for i in range(1, n):
        if mat_mul(s[i], s[i]) != ident:
            problems.append("s_%d is not an involution" % i)
    for i in range(1, n - 1):
        if mat_mul(s[i], mat_mul(s[i + 1], s[i])) != mat_mul(s[i + 1], mat_mul(s[i], s[i + 1])):
            problems.append("braid relation fails for s_%d" % i)
    for i in range(1, n):
        for j in range(i + 2, n):
            if mat_mul(s[i], s[j]) != mat_mul(s[j], s[i]):
                problems.append("s_%d and s_%d do not commute" % (i, j))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for a, (i, j) in enumerate(pairs):
        for (k, l) in pairs[a + 1:]:
            if len({i, j, k, l}) == 4 and not is_zero(commutator(tm(i, j), tm(k, l))):
                problems.append("[t_%d%d, t_%d%d] != 0" % (i, j, k, l))
    for (i, j) in pairs:
        for k in range(1, n + 1):
            if k not in (i, j) and not is_zero(commutator(tm(i, j), mat_add(tm(i, k), tm(k, j)))):
                problems.append("[t_%d%d, t_%d%d + t_%d%d] != 0" % (i, j, i, k, k, j))
    for r in range(1, n):
        perm = list(range(1, n + 1))
        perm[r - 1], perm[r] = perm[r], perm[r - 1]
        for (i, j) in pairs:
            if mat_mul(s[r], mat_mul(tm(i, j), s[r])) != tm(perm[i - 1], perm[j - 1]):
                problems.append("equivariance fails: s_%d . t_%d%d" % (r, i, j))
    return problems
