"""Numerical laboratory for Gaussian-filtered operator maps on finite
quantum spin systems.

The package implements, at exact-diagonalization scale, the filtered
almost inverse of the Liouvillian, the spectral flow it generates along
gapped Hamiltonian paths, the induced exponential clustering filter, and
flux-threading charge transport on small tori, together with the
Lieb-Robinson and locality estimates that control them.
"""

from .algebra import (
    LocalOperator,
    commutator,
    conditional_expectation,
    embed,
    liouvillian,
    operator_norm,
    pauli_string,
    random_hermitian,
    schatten_norm,
    trace_sites,
)
from .clustering import ClusterDecomposition, cluster_experiment, decompose_correlation
from .config import ExperimentConfig, load_config, validate_config
from .dynamics import (
    LRParams,
    evolve,
    lr_bound,
    lr_experiment,
    make_lr_params,
    propagator,
    smear,
)
from .errors import (
    AssumptionError,
    BoundViolationError,
    DegenerateFactorError,
    FitError,
    SchemaError,
)
from .filtering import (
    GaussianFilter,
    almost_inverse_liouvillian,
    erf_step_map,
    exact_inverse_liouvillian,
    gaussian_kernel,
    lemma36_check,
    locality_bound,
    prop34_check,
)
from .flow import (
    FlowGenerator,
    automorphic_equivalence_experiment,
    exact_flow_intertwining,
    integrate_flow,
    localize_generator,
    lppl_experiment,
)
from .harness import DecayCurve, ExpFit, fit_exponential, run
from .interaction import (
    Interaction,
    InteractionTerm,
    PolyPath,
    TrigRampPath,
    local_perturbation,
    tfim,
    xy_charge,
)
from .lattice import Region, SiteGraph, build_chain, build_ring, build_torus, c_bk
from .qhe import (
    ChargeGeometry,
    dressed_charge,
    flux_unitary,
    local_charge,
    qhe_experiment,
    quantization_check,
    region_charge,
    transport_operator,
    z_phase_operator,
)
from .spectra import (
    SpectralData,
    SpectralSplit,
    diagonalize,
    largest_gap_below,
    lowest_k,
    patch_expectation,
    split_spectrum,
    window,
)

__version__ = "0.1.0"
