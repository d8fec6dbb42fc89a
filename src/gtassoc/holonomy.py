"""Two facts about the n-strand holonomy algebras that the checks read.

T_n is generated by t_ij (i<j) with [t_ij, t_kl] = 0 for disjoint index
pairs and [t_ij, t_ik + t_kj] = 0.  Deleting the last strand exhibits T_n
as (free Lie on t_1n..t_{n-1,n}) |x T_{n-1}, iterated down to T_2, so the
enveloping algebra U(T_n) has the Hilbert series prod_{i=1}^{n-1} 1/(1-i t),
whose coefficients the report's holonomy-dims row pins.  No element of
U(T_n) is built here: the pentagon is checked in the Lie algebra t_4
(module tlie), and the U(T_4) normal form lives in the tests as its
oracle.  transposition serves the S_n-equivariance check of
InfinitesimalRep.validate.
"""

from __future__ import annotations


def hilbert_dimensions(n, maxdeg):
    """Coefficients of prod_{i=1}^{n-1} 1/(1-i t) through degree maxdeg."""
    dims = [1] + [0] * maxdeg
    for i in range(1, n):
        # multiply by 1/(1-i t): prefix recurrence d[k] += i*d[k-1]
        for k in range(1, maxdeg + 1):
            dims[k] += i * dims[k - 1]
    return dims


def transposition(n, r):
    """The adjacent transposition s_r = (r, r+1) in S_n."""
    perm = list(range(1, n + 1))
    perm[r - 1], perm[r] = perm[r], perm[r - 1]
    return tuple(perm)
