"""Line-embedded small-world overlays: greedy routing under failures and
churn, plus the hitting-time bound machinery behind them."""

from .analysis import (
    Interval,
    chain_equivalence_tv,
    mean_lower_bound,
    single_link_upper_bound,
    split_interval,
    step_interval,
)
from .dynamics import ReplacementPolicy, join, leave, replacement_decision
from .harness import ExperimentConfig, TrialStats, run_experiment
from .linkgen import (
    BernoulliOffsets,
    DeterministicBaseB,
    InversePowerLaw,
    PowersOfB,
    sample_line_links,
    sample_offsets,
    scheme_distances,
)
from .overlay import (
    OverlayGraph,
    apply_link_failures,
    apply_node_failures,
    build,
    build_binomial_presence,
)
from .routing import (
    Backtrack,
    RandomRestart,
    RouteResult,
    Routes,
    Sidedness,
    Status,
    Terminate,
    greedy_step,
    route,
    route_many,
)

__all__ = [name for name in dir() if not name.startswith("_")]
