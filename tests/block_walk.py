"""Replays a run's plays one at a time through `play_game`, the oracle the
tests hold `rsmt.game.run_trials` and its stream layout against."""

from rsmt.game import block_seed, play_game
from rsmt.transport import BLOCK_TRIALS, derive_streams


def walk_trials(protocol, profile, strategies, trials, master_seed):
    """(outcome, transcript) of each of a run's first `trials` plays, in
    order.  Trial i is block i // BLOCK_TRIALS at offset i % BLOCK_TRIALS:
    each block's first trial makes the streams the rest of the block draws on
    from."""
    ids = sorted(strategies)
    for idx in range(trials):
        if idx % BLOCK_TRIALS == 0:
            streams = derive_streams(block_seed(master_seed, idx // BLOCK_TRIALS), ids)
        yield play_game(protocol, profile, strategies, streams)
