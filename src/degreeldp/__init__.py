"""Locally differentially private release of graph degree sequences.

The pipeline: agree on a degree bound theta through masked aggregation,
have every node sample a private degree-order encoding, rebuild a
bounded graph by rank-scheduled edge addition with randomized-response
negotiation, then release Laplace-perturbed degrees.
"""

from .graph import Graph, degree_sequence, load_graph
from .harness import ExperimentConfig, emit_csv, load_dataset, run_grid, run_pipeline
from .mechanisms import PrivacyParams
from .projection import ProjectionConfig, Strategy, project
from .release import ReleaseReport
from .secure_agg import agree_keys, ka_param, masked_sum_round
from .theta import ThetaSearchConfig, theta_by_deviation

__version__ = "0.1.0"
