"""Outputs over coefficient rings, pinned bit for bit.

The CLI pins of tests/pins.json hash report JSON, where the ring checks are
booleans, so no CLI pin sees a Q[a,b] coefficient.  This file holds one
sha256 of the series text for each output below, over Q[a,b] (the generic
GT_1 element and what it acts on), over the kz ring Q[gamma, zeta_k] and
over the unitary model's ring Q[s_d], with s_d^2 = d^2 - 1.
"""

import hashlib
from functools import lru_cache

import pytest

from gtassoc import hmatrix, ncseries, scalar
from gtassoc.associators import phi0_reference
from gtassoc.braidreps import b3_example, diagonal_conjugator, gt_act_on_rep, phat
from gtassoc.grtgt import act_grt, act_gt, exp_s, g_ab, grt_cap_psi, psi_ab
from gtassoc.hecke import MatrixModel, rep_build
from gtassoc.kz import b_kz, h_tilde
from gtassoc.symcoef import SymRing
from gtassoc.tableaux import Partition

AB_RING = SymRing(("a", "b"))


def _sigmas_text(rep):
    return "".join(hmatrix.to_text(rep.sigma(i)) for i in range(1, rep.n))


@lru_cache(maxsize=None)
def _ab_outputs():
    """{name: text} of the outputs over Q[a,b]."""
    a, b = AB_RING.symbol("a"), AB_RING.symbol("b")
    phi0 = phi0_reference(5)
    phi0s = phi0.promote(AB_RING)
    gab = g_ab(a, b, phi0)
    rep = phat(b3_example(5), phi0).promote(AB_RING)
    twisted = gt_act_on_rep(rep, gab)
    return {
        "g_ab": ncseries.to_text(gab.series),
        "act_gt": act_gt(gab, phi0s).to_text(),
        "act_grt": act_grt(phi0s, grt_cap_psi(a, b, 5, AB_RING)).to_text(),
        "exp_s": ncseries.to_text(exp_s(psi_ab(a, b, 5, AB_RING), phi0s.series)),
        "b3-5-twisted": _sigmas_text(twisted),
        "b3-5-diagonal": "".join(map(scalar.to_text, diagonal_conjugator(rep, twisted))),
    }


def _output(name):
    if name in PINS_AB:
        return _ab_outputs()[name]
    if name.startswith("b_kz"):
        d, sign = name[len("b_kz-"):].split(",")
        return scalar.to_text(b_kz(int(d), int(sign)))
    if name.startswith("h_tilde-log"):
        return scalar.to_text(h_tilde(int(name[len("h_tilde-log-"):])).log())
    assert name == "unitary-3,2,1"
    return _sigmas_text(rep_build(Partition((3, 2, 1)), MatrixModel("unitary")))


PINS_AB = {
    "g_ab": "4b0cd663ce534c678c4e7ec8412a1705b7e817b63b33c5a78c7cc5f71aca39b6",
    "act_gt": "cc137cf431c17e60440330b7062720f4611157f11775bd6c810753b8012a7a16",
    "act_grt": "cc137cf431c17e60440330b7062720f4611157f11775bd6c810753b8012a7a16",
    "exp_s": "07ccee6bb4a95be512e2f0285ebd86aa1f79a486d3bc3d48cc18ed70eef22fbf",
    "b3-5-twisted": "65ee038ec4113f46f89bfceda192072d652b69b973eb721d337d4117b443c71c",
    "b3-5-diagonal": "0de0263b5a2055ddc1b3323ed2927617f4ef5c7ec358e3f25a670d0d89e990f8",
}
PINS = dict(PINS_AB, **{
    "b_kz-2,1": "77d360c6060ed39f6ef2191cd337bef2aaacd960e634b3d4a3888ee8e885ae42",
    "b_kz-2,-1": "5208ca0aa5a06554f86ed8fcf406b42512485ae57b60132a0adfe3971cdc9f64",
    "b_kz-3,1": "081fc153f440abb2efb0149631ae46c852f1c5bec834e8cd3aa253776f312d41",
    "b_kz-3,-1": "bf98dc65d82df60bfeb9deb0c6e70d2b91fa0cab3733b2201397b522366969fd",
    "b_kz-4,1": "db5a3a1b858caf2329be1abbd50d1c0c7ed3dd4a1d0d6539258b10ba5692b464",
    "b_kz-4,-1": "1fe03e5473dad8cd7739e0531640022f35211c5c6dba5fd7a558127bffd08411",
    "b_kz-5,1": "e512900d0adfee785a8c23ed3d70ddd6258bcaa627dc9e8c752f0e040069c8cb",
    "b_kz-5,-1": "56a1fd58935b5de35772ca0643cef7a3e1fec1f8c0b327bba0b6e3b96948365d",
    "b_kz-6,1": "c4264daa5d981c4f300a5de28b796116a0ac8f0da234849bf174ebf32ac66565",
    "b_kz-6,-1": "91a45339431a242362b170f0a2868cca5bb1d15eccc71c6d49cee342c0f85b58",
    "h_tilde-log-2": "f0f8768c613ccb60059dd068c41f8831b7d0af4433cc3ee2166bcb6dcb5416ff",
    "h_tilde-log-3": "d448f9cc77eccb5dd97ad1cd120b4b367b6d1565d761ee859019e36500aaa572",
    "h_tilde-log-4": "410cfbfda593c652c07a9bb43108359b2a18b6c53ca6faa3b6b8cede38926d91",
    "h_tilde-log-5": "af1696f605b302b97f4749c8596f74f4b14cc5854a9591be669da386890a5287",
    "h_tilde-log-6": "a63db640caa469f2874a1bda1db1470c0c1e0d1b9a0dbfbf9dd394b460e12388",
    "unitary-3,2,1": "cfe8deb19761d564d88dc2535575e62b71db1387054cf9db0edd5d758abd6ade",
})


@pytest.mark.parametrize("name", sorted(PINS))
def test_ring_output_is_pinned(name):
    assert hashlib.sha256(_output(name).encode()).hexdigest() == PINS[name]
