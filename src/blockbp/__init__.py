"""Community recovery in two-class sparse block models via tree belief propagation.

The package splits into graph-side machinery (random graph sampling,
neighborhoods, partitioners, the recovery pipeline) and tree-side machinery
(broadcast trees, the magnetization recursion, linear estimators, Monte Carlo
engines), glued together by a shared parameterization and an experiment
harness with a CLI.
"""

from .params import ModelParams, TreeParams, derive_tree_params, ks_signal
from .broadcast import BroadcastTree, sample_tree, run_broadcast, add_leaf_noise, tree_from_parents
from .bpcore import bp_combine, bp_root, exact_posterior
from .estimators import (
    MajorityMoments,
    ConductanceNetwork,
    CurrentWeights,
    majority_moments,
    majority_estimate,
    effective_conductance,
    current_weights,
    weighted_majority_sign,
)
from .randgraph import (
    LabelledGraph,
    SubgraphMap,
    sample_sbm,
    graph_from_edges,
    extract_neighborhood,
    remove_set,
)
from .partition import Partition, OverlapReport, blackbox_partition, overlap
from .pipeline import AlgoConfig, RecoveryResult, recover, choose_anchor, align_partition
from .harness import ExperimentSpec, ResultRow, run_experiment, write_results, default_spec

__version__ = "0.1.0"
