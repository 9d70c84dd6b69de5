"""Rational secure message transmission: finite-field primitives, threshold
and tamper-evident sharing, a deterministic multi-channel simulator, five
transmission protocols, and a game-theoretic evaluation harness.
"""

from .field import DEFAULT_BINARY_POLYS, FieldError, FieldSpec, interpolate, poly_eval
from .hashing import HashFamilySpec, offset_collision_prob_exhaustive
from .sharing import (
    FAIL,
    AmdSpec,
    RobustSharingSpec,
    SharingError,
    SharingSpec,
    ThresholdError,
    amd_decode,
    amd_encode,
    robust_reconstruct,
    robust_share,
    rs_reconstruct,
    shamir_reconstruct,
    shamir_share,
)
from .transport import (
    EMPTY,
    RNG_STREAM,
    AdversaryStrategy,
    AdversaryView,
    CorruptionProfile,
    Engine,
    SimulationFault,
    derive_rng,
    derive_streams,
    execute,
    view_of,
)

__version__ = "0.1.0"
