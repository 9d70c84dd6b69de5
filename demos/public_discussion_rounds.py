"""
Three rounds over a public channel
==================================

The public-discussion protocol sends one-time-pad keys over the private
channels and then uses an authenticated public channel to agree on which
keys arrived intact.  Tampered keys survive only on a hash collision.
"""

import random

from rsmt.protocols import (
    SjstProtocol,
    sjst_finalize_receiver,
    sjst_round1_sender,
    sjst_round2_receiver,
    sjst_round3_sender,
)

rng = random.Random(11)
# n = 3 channels, 4-bit verification tags, 8-bit message/keys.
spec = SjstProtocol(3, 4, 8)
message = 0xC3

# Round 1 (private channels): a short key r_i and a long key R_i per channel.
# The sender keeps its key dict; the payloads are a copy that the channels
# may tamper with.
keys, payloads = sjst_round1_sender(spec, rng)
print("keys sent:", {i: (f"{r:#04x}", f"{R:#04x}") for i, (r, R) in payloads.items()})

# The adversary on channel 2 swaps in fresh keys.
payloads[2] = (rng.getrandbits(4), rng.getrandbits(8))

# Round 2 (public): the receiver announces length flags B and, per surviving
# channel, a random hash key (a, b) plus the offset T' = r' ^ h(R').  It keeps
# the R' it received on the channels it did not flag.
public2, kept, _ = sjst_round2_receiver(spec, payloads, rng)
b_flags, h_entries = public2
print("length flags:", b_flags)

# Round 3 (public): the sender recomputes each offset from its own keys;
# mismatches become flags V, and the message is padded with the XOR of the
# long keys on channels that passed both checks.
public3, detects = sjst_round3_sender(spec, keys, public2, message)
v_flags, ciphertext = public3
print("verification flags:", v_flags, "-> detected channels:", detects)
print(f"ciphertext: {ciphertext:#04x}")

# The receiver strips the same pad: both sides excluded channel 2, so the
# substitution changed nothing.
out = sjst_finalize_receiver(spec, kept, public3)
print(f"received: {out:#04x} (sent {message:#04x})")
assert out == message

# Over many runs, a substituted key escapes the offset check only when the
# random hash collides: about 2^-4 of the time at 4-bit tags.
misses = 0
trials = 2000
for _ in range(trials):
    k, pl = sjst_round1_sender(spec, rng)
    pl[2] = (rng.getrandbits(4), rng.getrandbits(8))
    p2, _, _ = sjst_round2_receiver(spec, pl, rng)
    p3, _ = sjst_round3_sender(spec, k, p2, message)
    if p3[0][1] == 0:
        misses += 1
print(f"undetected substitutions: {misses}/{trials} (expect about {trials // 16})")
