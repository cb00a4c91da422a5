"""Query-efficient correlation clustering with noisy similarity oracles.

The package pairs a pure-exploration bandit front end (which decides how
often to query each element pair) with random-pivot clustering (which turns
the learned pair classifications into a partition).  Two adaptive
algorithms are provided, one for the fixed-confidence regime and one for a
fixed query budget, plus uniform-sampling baselines, offline references
(exact optimum at small n, Monte-Carlo expected pivot cost), and the
instance-dependent gap analysis behind their guarantees.
"""

from .analysis import (
    EpsilonBands,
    GapProfile,
    epsilon_bands,
    fb_error_bound,
    fb_min_gap,
    fc_sample_bound,
    gaps,
    success_check,
    tilde_gaps,
)
from .errors import (
    BudgetExhaustedError,
    InstanceTooLargeError,
    InsufficientBudgetError,
    InvalidClusteringError,
    InvalidPairError,
    InvalidSpecError,
    NoisyccError,
    NoSamplesError,
    ParameterError,
)
from .instance import (
    GeneratorSpec,
    Instance,
    generate,
    load_instance,
    num_pairs,
    pair_index,
    pair_of,
    save_instance,
)
from .kcfb import FbReport, next_tau, run_kcfb
from .kcfc import FcReport, run_kcfc, run_kcfc_sequential
from .offline import (
    OptResult,
    brute_force_opt,
    cost,
    expected_cost_mc,
    kwikcluster,
)
from .oracle import NoiseModel, Oracle
from .tbhs import TbhsConfig, TbhsOutput, containment_check, radius, run_tbhs
from .uniform import (
    OfflineSolver,
    run_uniform_fb,
    run_uniform_fc,
    uniform_fc_pulls,
)

__all__ = [
    "BudgetExhaustedError",
    "EpsilonBands",
    "FbReport",
    "FcReport",
    "GapProfile",
    "GeneratorSpec",
    "Instance",
    "InstanceTooLargeError",
    "InsufficientBudgetError",
    "InvalidClusteringError",
    "InvalidPairError",
    "InvalidSpecError",
    "NoiseModel",
    "NoisyccError",
    "NoSamplesError",
    "OfflineSolver",
    "OptResult",
    "Oracle",
    "ParameterError",
    "TbhsConfig",
    "TbhsOutput",
    "brute_force_opt",
    "containment_check",
    "cost",
    "epsilon_bands",
    "expected_cost_mc",
    "fb_error_bound",
    "fb_min_gap",
    "fc_sample_bound",
    "gaps",
    "generate",
    "kwikcluster",
    "load_instance",
    "next_tau",
    "num_pairs",
    "pair_index",
    "pair_of",
    "radius",
    "run_kcfb",
    "run_kcfc",
    "run_kcfc_sequential",
    "run_tbhs",
    "run_uniform_fb",
    "run_uniform_fc",
    "save_instance",
    "success_check",
    "tilde_gaps",
    "uniform_fc_pulls",
]
