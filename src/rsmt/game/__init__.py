from .attacks import (
    CATALOG,
    AttackCatalogEntry,
    BlockChannels,
    CatalogStrategy,
    PassiveGuess,
    Rewrite,
    SwapHalf,
    catalog_for,
)
from .bounds import (
    BoundError,
    required_delta_rss,
    required_ell_p1,
    required_ell_p2,
    required_ell_p3,
    required_ell_pd,
    required_ell_rss,
    requirement_table,
)
from .nash import CSV_COLUMNS, ReportRow, nash_catalog_check
from .play import (
    GameStats,
    block_seed,
    outcome_of,
    play_game,
    run_cell,
    run_trials,
)
from .utility import (
    Outcome,
    UtilityError,
    UtilityTable,
    WITNESS_BASE,
    derive_u_values,
    witness_table,
)
