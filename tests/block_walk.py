"""Replays a run's plays one at a time through `play_game`, the oracle the
tests hold `rsmt.game.plays`, `run_trials` and their stream layout against."""

from rsmt.game import block_seed, play_game
from rsmt.transport import BLOCK_TRIALS, derive_streams


def walk_trials(protocol, profile, strategies, trials, master_seed):
    """(outcome, transcript) of each of a run's first `trials` plays, in
    order.  Trial i is block i // BLOCK_TRIALS at offset i % BLOCK_TRIALS:
    each block's first trial makes the streams the rest of the block draws on
    from.  A callable `profile` draws each play's profile from the honest
    stream before the message (test 08's uniformly random pair of channels)."""
    ids = sorted(strategies)
    for idx in range(trials):
        if idx % BLOCK_TRIALS == 0:
            streams = derive_streams(block_seed(master_seed, idx // BLOCK_TRIALS), ids)
        drawn = profile(streams.honest) if callable(profile) else profile
        yield play_game(protocol, drawn, strategies, streams)
