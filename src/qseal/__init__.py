"""Desk-scale simulator for quantum sealed-message protocols.

Sparse exact states, honest and adversarial parties, and the numerical
verification of the detection bounds they obey.
"""

from .adversary import (
    CheatReport,
    ProofChain,
    basis_cheat,
    optimal_post_collapse_response,
    predicate_cheat,
    proof_chain,
    random_strategy_sweep,
    soundness_bound,
    strategy_report,
)
from .harness import (
    ConfigInvalid,
    ExperimentConfig,
    InvariantViolation,
    NegligibilityRow,
    ScalingRow,
    SweepRow,
    run_bound_sweep,
    run_multipicture_scaling,
    run_oaep_negligibility,
)
from .oaep import (
    CaptchaFunction,
    DegenerateUWarning,
    HumanOracle,
    OaepContext,
    OaepParams,
    encode,
    r_set,
    seal_oaep,
    tu_overlap,
    unseal_oaep,
    useless_query_bound,
)
from .protocols import (
    SealedInstance,
    honest_unseal,
    instance_from_dict,
    instance_to_dict,
    seal_garbage,
    seal_multipicture,
    seal_naive,
    verify_return,
)
from .states import (
    Ensemble,
    LocalUnitary,
    ProjPartition,
    SparseState,
    apply_unitary_c,
    collapse_branches,
    inner_product,
    project_accept_probability,
    random_unitary,
    sample_readout,
    squared_overlap,
    state_from_dict,
    state_to_dict,
    trace_distance_pure,
    trace_distance_pure_vs_ensemble,
)

__version__ = "0.1.0"
