#!/usr/bin/env python3
"""Build the degree-5 even reference associator and check everything it claims.

An associator candidate is a pair (lambda, Phi): a noncommutative series
over {x, y} with constant term 1.  The defining system is

  * grouplike:  log(Phi) is a Lie series degree by degree,
  * duality:    Phi(y,x) Phi(x,y) = 1,
  * hexagon:    e^{x/2} Phi(z,x) e^{z/2} Phi(y,z) e^{y/2} Phi(x,y) = 1
                with z = -x-y (at lambda = 1),
  * pentagon:   a five-face equation inside the truncated enveloping
                algebra of the 4-strand holonomy Lie algebra.

Everything here is exact rational arithmetic; there is no floating point
anywhere in the package.
"""

from gtassoc import (AssociatorCandidate, NCSeries, c_extract, certify,
                     extend_associator, phi0_reference)
from gtassoc.holonomy import hilbert_dimensions
from gtassoc.ncseries import to_text
from gtassoc.wbasis import w_coordinates

print(__doc__)

phi0 = phi0_reference(5)
print("the reference candidate, rendered in the series text format:\n")
print(to_text(phi0.series, extra={"lambda": phi0.lam}))

print("running the four membership checks...")
for name, ok in certify(phi0).items():
    print("  %-10s %s" % (name, "pass" if ok else "FAIL"))
print("degree-3 coefficient c =", c_extract(phi0), "(an even associator has c = 0)")

print("\nthe pentagon lives in the 4-strand holonomy enveloping algebra;")
print("its graded dimensions through degree 6:", hilbert_dimensions(4, 6))

print("\nnow rebuild an associator from nothing but the equations.")
cand = AssociatorCandidate(NCSeries.one(("x", "y"), 1), 1)
for target in (2, 3, 4, 5):
    cand, kernel = extend_associator(cand, parity=True)
    print("  degree %d: solution space dimension %d over the forced part"
          % (target, len(kernel)))
print("\nthe even solution reproduces the reference through degree 5:",
      cand.series.equal_through(phi0.series))

print("\nthe degree-3 ambiguity is the line c ([x,[x,y]] - [y,[y,x]]):")
cand2, kernel3 = extend_associator(
    AssociatorCandidate(phi0.series.truncated(2), 1))
print("  kernel coordinates on (w4, w5):", w_coordinates(kernel3[0], 3))
