#!/usr/bin/env python3
"""Characters of the filtered group on Hecke representations, and resonances.

Twisting a representation rescales each block scalar: b_d goes to
b_d chi_d(g).  On the reduced Burau family the chi_d arise as consecutive
ratios of the diagonal conjugator, and a general tableau carries the
monomial prod chi_{d_T(i,j)} over its column inversions, which the
diagonal conjugator of any shape carries at T (up to the first tableau's
monomial).  A shape is
resonance-free when all its tableau monomials differ; the scan below
recovers the classification: hooks and [2,2] only.
"""

from gtassoc import (MatrixModel, Partition, SymRing, chi_d, chi_tableau,
                     diagonal_conjugator, g_ab, gt_act_on_rep, hook_identity, phat,
                     phi0_reference, rep_build, resonance_scan, tableaux, wedge_exponents)
from gtassoc.characters import colliding_tableaux, tableau_diagonal
from gtassoc.hecke import hecke_infinitesimal

print(__doc__)

phi0 = phi0_reference(5)
ring = SymRing(("a", "b"))
gab = g_ab(ring.symbol("a"), ring.symbol("b"), phi0)

print("the character values on the generic element, via the model ratio:")
for d in (2, 3, 4):
    chi = chi_d(gab, d, phi0)
    print("  chi_%d(g_ab) = 1 + (%s) h^3 + (%s) h^5 + ..." % (
        d, chi.coefficient(3), chi.coefficient(5)))

print("\nthe same values from the Burau diagonal conjugator (4 strands):")
rho = hecke_infinitesimal(Partition((2, 1, 1)))
rep = phat(rho, phi0).promote(ring)
diag = diagonal_conjugator(rep, gt_act_on_rep(rep, gab))
for j, entry in enumerate(diag, start=1):
    print("  a_%d = 1 + (%s) h^3 + (%s) h^5 + ..." % (
        j, entry.coefficient(3), entry.coefficient(5)))

print("\nthe conjugator on the non-hook shape [3,2,1], next to its tableau monomials:")
shape = Partition((3, 2, 1))
rep = rep_build(shape, MatrixModel("semi", phi0)).promote(ring)
diag = diagonal_conjugator(rep, gt_act_on_rep(rep, gab))
for t, entry in zip(tableaux(shape), diag):
    print("  %-22s %-18r 1 + (%s) h^3 + ..." % (
        t.rows(), chi_tableau(t), entry.coefficient(3)))

print("\ntableau monomials down the diagonal of [3,2]:")
print(" ", " ".join(repr(v) for v in tableau_diagonal(Partition((3, 2)))))
t1, t2 = colliding_tableaux(Partition((3, 2)))
print("the two colliding tableaux:", t1.rows(), "and", t2.rows(),
      "->", chi_tableau(t1), "=", chi_tableau(t2))

print("\nhook identity: chi_T chi_T' depends only on the shape:")
hv, ok = hook_identity(Partition((3, 2)))
print("  [3,2]:", hv, "holds for every tableau:", ok)

print("\nresonance-free scan through n = 8 (True exactly on hooks and [2,2]):")
for shape, free, _ in resonance_scan(8):
    if free and not shape.is_hook():
        print("  non-hook resonance-free shape:", shape)
count = sum(1 for _, free, _ in resonance_scan(8) if free)
print("  resonance-free shapes found:", count)

print("\nexterior powers of Burau stay resonance-free: rank-2 vectors on 4 strands:")
for subset, vec in wedge_exponents(4, 2):
    print("  I=%s -> %r" % (subset, vec))
