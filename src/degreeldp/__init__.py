"""Locally differentially private release of graph degree sequences.

The pipeline: agree on a degree bound theta through masked aggregation,
have every node sample a private degree-order encoding, rebuild a
bounded graph by rank-scheduled edge addition with randomized-response
negotiation, then release Laplace-perturbed degrees.
"""

from .encoding import DEFAULT_PARTITION_SIZE, PartitionScheme, build_partitions, ndoe_sample, order_probs
from .graph import (
    EdgeListParseError,
    Graph,
    GraphStats,
    degree_sequence,
    load_edge_list,
    load_graph,
    stats,
    write_edge_list,
)
from .harness import (
    CSV_COLUMNS,
    DATA_DIR_ENV,
    ExperimentConfig,
    MetricsRow,
    emit_csv,
    load_dataset,
    mae,
    mae_dist,
    mse,
    run_grid,
    run_pipeline,
)
from .mechanisms import (
    PrivacyParams,
    categorical_sample,
    exp_mech_probs,
    laplace_sample,
    wrr_debias_count,
    wrr_respond,
    wrr_truth_rate,
)
from .projection import (
    ProjectedGraph,
    ProjectionConfig,
    Strategy,
    edge_remove,
    lpea_low,
    project,
    projection_error,
)
from .release import ReleaseReport, degree_distribution, dsr, noise_scale
from .secure_agg import (
    DEFAULT_BITS,
    GroupParams,
    KeyPair,
    agree_keys,
    aggregate,
    compute_mask,
    ka_agree,
    ka_gen,
    ka_param,
    mask_scalar,
    masked_sum_round,
)
from .synthetic import powerlaw_graph
from .theta import ThetaSearchConfig, quantile_oracle, resolve_theta, theta_by_deviation, theta_by_sum

__version__ = "0.1.0"
