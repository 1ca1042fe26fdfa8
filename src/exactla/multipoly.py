"""Exponent dicts for the multivariate entry rings.

MultiPolynomialRing and QuotientRing elements are nested dense tuples:
a polynomial in v1..vk is the tuple of its coefficients in vk (ascending,
trailing zeros stripped), each a polynomial in v1..v(k-1), down to ints
(see rings.py).  {exponent-tuple: int} dicts are only the exchange form
of format, parse and random_element; the two enumerators fix the order
in which random_element draws its coefficients.
"""


def to_dict(a, nvars):
    """{(e1..ek): coefficient} of the nonzero terms of a nested element."""
    if nvars == 0:
        return {(): a} if a else {}
    return {e + (k,): c for k, ck in enumerate(a)
            for e, c in to_dict(ck, nvars - 1).items()}


def from_dict(d, nvars, p=None):
    """Nested element of an exponent dict; coefficients are reduced mod p
    when p is given, and zero terms are dropped."""
    by_top = {}
    for e, c in d.items():
        if p is not None:
            c %= p
        if c:
            by_top.setdefault(e[-1], {})[e[:-1]] = c
    out = [0 if nvars == 1 else ()] * (max(by_top, default=-1) + 1)
    for k, sub in by_top.items():
        out[k] = sub[()] if nvars == 1 else from_dict(sub, nvars - 1)
    return tuple(out)


def exponents_upto(nvars, total):
    """Exponent tuples of total degree <= total, first variable slowest."""
    if nvars == 0:
        yield ()
        return
    for head in range(total + 1):
        for rest in exponents_upto(nvars - 1, total - head):
            yield (head,) + rest


def exponents_below(degs):
    """Exponent tuples with e_i < degs[i], first variable slowest."""
    if not degs:
        yield ()
        return
    for head in range(degs[0]):
        for rest in exponents_below(degs[1:]):
            yield (head,) + rest
