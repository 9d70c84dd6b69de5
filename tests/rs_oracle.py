"""Brute-force Reed-Solomon decoding, the oracle the tests hold Gao's
decoder (`rsmt.sharing.rs_reconstruct`) against."""

import itertools

from rsmt.field import interpolate, poly_eval
from rsmt.sharing import FAIL


def rs_reconstruct_bruteforce(spec, shares, max_errors):
    """Try every (t+1)-subset and look for a polynomial consistent with at
    least n - max_errors shares.  Any two such polynomials agree on >= t+1
    points and are therefore equal, so the answer is unique."""
    f = spec.field
    xs = sorted(shares)
    ys = [shares[i] for i in xs]
    for subset in itertools.combinations(range(spec.n), spec.t + 1):
        poly = interpolate(f, [xs[i] for i in subset], [ys[i] for i in subset])
        if sum(poly_eval(f, poly, x) == y for x, y in zip(xs, ys)) >= spec.n - max_errors:
            return poly[0]
    return FAIL
