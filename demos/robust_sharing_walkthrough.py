"""
Robust secret sharing, step by step
===================================

Shares a secret across n channels so that any t shares reveal nothing,
errors can be corrected, and additive manipulation is caught.
"""

import random

from rsmt.field import FieldSpec
from rsmt.sharing import (
    FAIL,
    AmdSpec,
    RobustSharingSpec,
    SharingSpec,
    amd_decode,
    amd_encode,
    robust_reconstruct,
    robust_share,
    rs_reconstruct,
    shamir_share,
)

rng = random.Random(2024)

# A small prime field keeps every value easy to eyeball.
gf = FieldSpec.prime(251)
print(f"working in GF({gf.q})")

# --- threshold sharing -------------------------------------------------------
# A degree-t polynomial with the secret as constant term, evaluated at
# points 1..n.  Any t+1 shares interpolate back; any t shares are uniform.
spec = SharingSpec(t=2, n=5, field=gf)
secret = 42
shares = shamir_share(spec, secret, rng)
print("shares:", shares)

# --- error correction --------------------------------------------------------
# With n = 5 and t = 2 one corrupted share is tolerated: the decoder finds
# the unique polynomial agreeing with at least n - 1 of the shares.
bad = dict(shares)
bad[3] = (bad[3] + 17) % gf.q
recovered = rs_reconstruct(spec, bad, max_errors=1)
print("after corrupting share 3, decode gives:", recovered)
assert recovered == secret

# --- manipulation detection --------------------------------------------------
# The tamper-evident encoding is the flat tuple (s, x, x^3 + s*x); any fixed
# additive offset survives with probability at most (d+1)/q = 2/251.
amd = AmdSpec(gf, 1)
cw = amd_encode(amd, [secret], rng)
print("codeword (s, x, tag):", cw)
s, x, tag = cw
print("shifting s by 1 decodes to:", amd_decode(amd, ((s + 1) % gf.q, x, tag)))

# --- putting it together -----------------------------------------------------
# Robust sharing = Shamir sharing of the codeword, coordinate by coordinate.
# A tampered reconstruction is rejected except with probability 2/251.
rspec = RobustSharingSpec(amd, spec)
rshares = robust_share(rspec, [secret], rng)
vec = list(rshares[2])
vec[0] = (vec[0] + 9) % gf.q
rshares[2] = tuple(vec)
out = robust_reconstruct(rspec, rshares)
print("reconstruction from a tampered share set:", out)
assert out is FAIL
