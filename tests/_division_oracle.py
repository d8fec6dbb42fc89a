"""Long division in k[[h]]: the oracle for scalar.scalar_div.

The quotient is read off one coefficient at a time, each one the remainder's
lowest coefficient over the denominator's leading one, and the remainder is
updated by the full product q * den after each.  The refusals and their
messages are those of scalar_div.
"""

from gtassoc.symcoef import as_fraction


def long_division(num, den):
    num._check(den)
    wd = den.order()
    if wd is None:
        raise ZeroDivisionError("division by the zero series")
    wn = num.order()
    if wn is not None and wn < wd:
        raise ValueError("division would leave k[[h]]: order(num) < order(den)")
    ko = min(num.known_order, den.known_order) - wd
    if ko < 0:
        raise ValueError("denominator order exceeds the known order")
    lead = as_fraction(den.coefficient(wd))
    out = {}
    rem = {k - wd: c for k, c in num.terms.items()}
    dshift = {k - wd: c for k, c in den.terms.items()}
    for k in range(ko + 1):
        c = rem.get(k)
        if c is None:
            continue
        q = c * (1 / lead)
        if not q:
            continue
        out[k] = q
        for dk, dc in dshift.items():
            t = k + dk
            if t <= ko:
                rem[t] = rem[t] - q * dc if t in rem else -(q * dc)
    return num._like(out, ko)
