from fractions import Fraction as F

import pytest

from gtassoc.associators import AssociatorCandidate
from gtassoc.hmatrix import HMatrix, from_text as hmatrix_from, to_text as hmatrix_to
from gtassoc.ncseries import from_text as nc_from, to_text as nc_to
from gtassoc.scalar import ScalarSeries, from_text as scalar_from, to_text as scalar_to


def test_associator_text_round_trip(phi0):
    text = phi0.to_text()
    series, fields = nc_from(text)
    assert fields["lambda"] == "1"
    assert series == phi0.series
    again = AssociatorCandidate(series, F(fields["lambda"]))
    assert again.to_text() == text


def test_hmatrix_round_trip():
    h = ScalarSeries.gen(4)
    m = HMatrix([[ScalarSeries.one(4) + h, 2 * h],
                 [ScalarSeries.zero(4), ScalarSeries.one(4) - F(1, 3) * h * h]])
    text = hmatrix_to(m, extra={"role": "sigma1"})
    back, fields = hmatrix_from(text)
    assert fields["role"] == "sigma1"
    assert back.equal_through(m)
    assert hmatrix_to(back, extra={"role": "sigma1"}) == text


_SCALAR = "alphabet=h maxdeg=4 ring=Q knownorder=3\n1\t1\nh.h\t2\n"
_SERIES = "alphabet=x,y maxdeg=4 ring=Q knownorder=3\nx\t1\nx.y\t-1/2\n"
_MATRIX = ("hmatrix n=2\nentry 0 0\n%sentry 0 1\n%sentry 1 0\n%sentry 1 1\n%s"
           % ((_SCALAR,) * 4))


_MALFORMED = {
    "scalar-foreign-letter": (scalar_from, _SCALAR.replace("h.h", "q.z")),
    "series-foreign-letter": (nc_from, _SERIES.replace("x.y", "x.z")),
    "scalar-past-known-order": (scalar_from, _SCALAR + "h.h.h.h\t1\n"),
    "series-past-known-order": (nc_from, _SERIES + "x.x.y.y\t1\n"),
    "series-past-maxdeg": (nc_from, _SERIES.replace("knownorder=3", "knownorder=9")
                           + "x.x.x.x.x\t1\n"),
    "scalar-repeated-word": (scalar_from, _SCALAR + "h.h\t3\n"),
    "series-repeated-word": (nc_from, _SERIES + "x\t5\n"),
    "series-missing-field": (nc_from, "maxdeg=4 ring=Q\nx\t1\n"),
    "matrix-entry-out-of-range": (hmatrix_from, _MATRIX.replace("entry 1 1", "entry 1 2")),
    "matrix-repeated-entry": (hmatrix_from, _MATRIX.replace("entry 1 1", "entry 0 0")),
    "matrix-missing-entry": (hmatrix_from, _MATRIX[:_MATRIX.index("entry 1 1")]),
    "matrix-entries-of-different-maxdeg": (hmatrix_from, _MATRIX[:_MATRIX.index("entry 1 1")]
                                           + "entry 1 1\n"
                                           + _SCALAR.replace("maxdeg=4", "maxdeg=5")),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_text_is_refused(case):
    parse, text = _MALFORMED[case]
    with pytest.raises(ValueError):
        parse(text)


def test_valid_text_round_trips():
    for parse, text, write in ((scalar_from, _SCALAR, scalar_to), (nc_from, _SERIES, nc_to),
                               (hmatrix_from, _MATRIX, hmatrix_to)):
        assert write(parse(text)[0]) == text
