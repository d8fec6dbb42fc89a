#!/usr/bin/env python3
"""Gamma-function combinations over formal zeta symbols.

The scalars of the analytically-defined model and its conjugate are exact
series in hb = h/(2 i pi) over Q[gamma, zeta2, ..., zeta9].  Their ratio
is an exponential in odd zetas only, its square root compares them to the
even reference, and specializing even zetas by the Bernoulli values drops
the whole thing back into Q[[h]], where it meets the model scalar computed
from the degree-5 reference associator.
"""

from fractions import Fraction

from gtassoc import (b_even_ref, b_kz, h_tilde, kz_ring, phi_kz_symbolic,
                     ratio_formula_rhs, specialize_even, b_semi, phi0_reference)
from gtassoc.associators import c_extract
from gtassoc.scalar import scalar_div

print(__doc__)

ring = kz_ring()
d = 3

print("log of the ratio of the two conjugate scalars at d = %d:" % d)
log_ratio = scalar_div(b_kz(d, +1, ring), b_kz(d, -1, ring)).log()
for k in range(1, 8):
    c = log_ratio.coefficient(k)
    if c:
        print("  hb^%d: %s" % (k, c))
print("matches the closed form with Q_n(d) = (d+1)^{2n+1} + (d-1)^{2n+1} - 2d^{2n+1}:",
      scalar_div(b_kz(d, +1, ring), b_kz(d, -1, ring)).equal_through(
          ratio_formula_rhs(d, ring), 7))

print("\nthe square-root comparison against the even reference:")
ht = h_tilde(d, ring)
print("  b_kz(+)/b_even = h_tilde:",
      scalar_div(b_kz(d, +1, ring), b_even_ref(d, ring)).equal_through(ht))
print("  log h_tilde coefficients (gamma-free, odd zetas only):")
for k in (3, 5, 7):
    print("    hb^%d: %s" % (k, ht.log().coefficient(k)))

print("\nspecializing the even reference by Euler's zeta(2k) values:")
sp = specialize_even(b_even_ref(d, ring), 5)
print("  in Q[[h]]:", "1 + (%s) h^2 + (%s) h^4 + ..." % (
    (Fraction(d, d + 1) * sp).coefficient(2), (Fraction(d, d + 1) * sp).coefficient(4)))
phi0 = phi0_reference(5)
print("  agrees with the model scalar through h^4:",
      sp.equal_through(b_semi(phi0, d), 4))

print("\nthe degree-5 symbolic truncation of the analytic associator:")
pkz = phi_kz_symbolic(5)
print("  degree-3 coefficient c =", c_extract(pkz))
