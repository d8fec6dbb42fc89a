"""The closed form of the second diagonal entry of a Hecke block.

a'_d = q - q^{-1} - a_d is the lower-right entry of every block M_d; the
tests compare the semi-normal blocks against it, and the check negatives
swap it in for a_d.
"""

from gtassoc.hecke import DEFAULT_MAXDEG, q_series
from gtassoc.scalar import ScalarSeries, scalar_div


def a_entry_prime(d, maxdeg=DEFAULT_MAXDEG, ring=None) -> ScalarSeries:
    """a'_d = q^{2d-1}(q^2 - 1)/(q^{2d} - 1)."""
    one = ScalarSeries.one(maxdeg, ring)
    num = q_series(maxdeg, ring, 2 * d - 1) * (q_series(maxdeg, ring, 2) - one)
    return scalar_div(num, q_series(maxdeg, ring, 2 * d) - one)
