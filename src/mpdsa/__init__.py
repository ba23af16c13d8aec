"""Numerical laboratory for interacting lattice particles in random potentials."""

__version__ = "0.1.0"

from .configspace import (
    Ball,
    Decomposition,
    LatticeGeometry,
    SeparabilityWitness,
    canonical_config,
    canonical_decomposition,
    classify_ball,
    config_distance,
    diam,
    edge_boundary,
    enumerate_ball,
    factorization_check,
    find_separability_witness,
    maximal_separation_split,
    occupation_map,
    subconfig_distance,
)
from .disorder import (
    FieldModel,
    FieldSample,
    MeanFluctuation,
    derive_seed,
    empirical_mixing,
    empirical_nu,
    mean_fluct_decompose,
    potential_energy,
    sample_field,
)
from .msa import (
    AuditContext,
    BoundSchedule,
    ScalingParams,
    check_param_constraints,
    is_E_CNR,
    is_E_NR,
    is_EmNS,
    is_m_loc,
    is_m_tunneling,
    predicate_report,
    scales,
    verify_implications,
    verify_longrange_split,
)
from .operators import (
    HamiltonianSpec,
    InteractionModel,
    OperatorMatrix,
    assemble_hamiltonian,
    epsilon_bound,
    interaction_energy,
    kronecker_sum,
    laplacian_matrix,
    truncate_interaction,
)
from .spectral import (
    EigenSystem,
    GreenEvaluation,
    diagonalize,
    eigensystem_from_factors,
    green_function,
    radial_descent_bound,
    radial_descent_bound_two,
    subharmonic_check,
    verify_gri,
    verify_gri_eigenfunction,
)
from .experiments import (
    ProbabilityEstimate,
    TrialSetup,
    decay_fit,
    ef_correlator,
    estimate_event_probability,
    evc_bound,
    evc_experiment,
    finite_volume_dl_bound,
    propagator_sup,
    run_scaling_audit,
    wilson_interval,
)
