from .base import Protocol, ProtocolError
from .ciss import (
    P1,
    P2,
    P3,
    CissProtocol,
    ciss_receiver_decode,
    ciss_sender_encode,
    mismatch_lists,
)
from .rss import RssProtocol, rss_receive, rss_send
from .sjst import (
    SjstProtocol,
    sjst_finalize_receiver,
    sjst_round1_sender,
    sjst_round2_receiver,
    sjst_round3_sender,
)
from .strawman import StrawmanProtocol, strawman_receive, strawman_send

# variant name (the "variant" key of a protocol config) -> the class whose
# `from_json` reads that config
VARIANTS: dict[str, type[Protocol]] = {
    "SJST": SjstProtocol,
    "RSS": RssProtocol,
    P1: CissProtocol,
    P2: CissProtocol,
    P3: CissProtocol,
    "STRAWMAN": StrawmanProtocol,
}
