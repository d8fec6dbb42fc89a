"""Exact arithmetic for truncated associators, the graded and filtered
Teichmuller group laws, braid representations over power series, and
Iwahori-Hecke matrix models, over Q with optional formal symbols."""

from .associators import (AssociatorCandidate, bar, c_extract, certify, duality_check,
                          extend_associator, hexagon_check, pentagon_check, phi0_reference)
from .braidreps import (BraidRep, InfinitesimalRep, b3_example, diagonal_conjugator,
                        gt_act_on_rep, phat)
from .braids import BraidWord, format_braid, parse_braid
from .characters import (ExponentVector, chi_d, chi_tableau, hook_identity, resonance,
                         resonance_scan, wedge_exponents)
from .grtgt import (GrtElt, GtElt, act_grt, act_gt, certify_grt, g_ab, grt_cap_psi,
                    grt_exp, grt_inverse, grt_mul, gt_checks, gt_inverse, gt_mul,
                    ihara_projection, iota, kappa_identification, psi1, psi2)
from .hecke import (MatrixModel, b_semi, hecke_infinitesimal, q_integer, q_series,
                    rep_build, unitarity_check)
from .kz import (b_even_ref, b_kz, gamma3_F, h_tilde, kz_ring, loggamma,
                 phi_kz_symbolic, ratio_formula_rhs, specialize_even)
from .ncseries import (NCSeries, bch, is_grouplike, is_lie, lyndon_basis, nc_exp, nc_log,
                       nc_substitute)
from .scalar import ScalarSeries, scalar_div, scalar_sqrt
from .symcoef import Poly, SymRing
from .tableaux import Partition, StandardTableau, axial_distance, partitions_of, tableaux

__version__ = "0.1.0"
