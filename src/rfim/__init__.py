"""Random-field Ising models on bounded-degree graphs.

Glauber dynamics with monotone and grand couplings, exact small-model
oracles, edge-event localization tilts, percolation-backed spectral-gap and
MLSI certificates, field boosting, weak-spatial-mixing diagnostics and the
incremental warm-start sampler, plus a CLI over all of it.
"""

__version__ = "0.1.0"

from .errors import CapacityError, InputError, RfimError, ValidationFailure
from .graphs import (
    Graph,
    GrowthProfile,
    ball,
    boundary,
    build_graph,
    connected_components,
    connected_ordering,
    cycle_graph,
    complete_graph,
    edge_ball,
    graph_distance,
    grid_graph,
    growth_profile,
    path_graph,
    random_regular_graph,
    torus_grid,
    tree3,
)
from .model import (
    PM,
    ZERO_ONE,
    AssumptionParams,
    FieldDistribution,
    IsingModel,
    QuenchedField,
    SpinConfiguration,
    assumption_params,
    check_field_assumption,
    edge_tilt,
    hamiltonian,
    induced_model,
    sample_field,
    theta_star,
    to_zero_one,
)
from .oracle import (
    GibbsTable,
    SpectralReport,
    at_variance_constant,
    cor2_matrix,
    gibbs_table,
    glauber_gap,
    marginals,
    mean_and_covariance,
    mlsi_lower_estimate,
    sup_cor2_over_pinnings,
    tv_distance,
)
from .dynamics import (
    ChainState,
    CouplingTrace,
    empirical_tv_curve,
    grand_coupled_update,
    mixing_time_bound,
    monotone_coupled_batch,
    monotone_coupled_run,
    run_chain,
    run_chains_batch,
)
from .localization import (
    ConservationCertificate,
    DenoisingTrace,
    entropy_conservation_R,
    entropy_conservation_for_model,
    exact_revealed_posterior,
    marginal_lower_bound,
    posterior_model,
    sample_noising_trace,
    variance_conservation_R,
    verify_posterior_by_simulation,
    vertex_tilt_table,
)
from .percolation import (
    GapCertificate,
    MlsiCertificate,
    PercolationRealization,
    cluster_of_edge,
    cluster_tail_bound,
    disagreement_experiment,
    gap_certificate,
    mlsi_certificate,
    norm_interpolation_check,
    otter_dwass_pmf,
    percolate,
    refined_gap_tail,
    row_sum_tail_bound,
    row_sum_tail_report,
    simulate_total_progeny,
)
from .slwsm import (
    SeparationPlan,
    SlRealization,
    WsmReport,
    build_separation_plan,
    estimate_wsm,
    sl_boost,
    trace_moment_probe,
    weak_poincare_probe,
    wsm_delta,
)
from .sampler import (
    RunReport,
    SamplerConfig,
    incremental_sample,
    incremental_sample_batch,
    run_experiment,
    validated_incremental_sample,
    warm_start_density_bound,
    warm_start_tv_bound,
)
