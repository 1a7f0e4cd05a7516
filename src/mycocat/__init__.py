"""mycocat: compositional modelling of mycelial networks.

Finite attributed graphs with pushout-based fusion, environment and
network states with admissible transformations, piecewise-constant control
programs over a bilinear reference dynamics, matrix Lie machinery for
order effects, law-checking harnesses, and the two-pulse order-asymmetry
experiment.
"""

from .envmyc import (
    Constraints,
    DistanceWeights,
    EnvMorphism,
    EnvObject,
    FieldRule,
    MycMorphism,
    MycObject,
    anastomosis,
    anastomosis_with_injections,
    apply_env_morphism,
    compose_env_morphisms,
    compose_myc_morphisms,
    env_distance,
    myc_distance,
    transport_myc,
)
from .errors import MycocatError
from .experiments import (
    AsymmetryReport,
    ExposureExperiment,
    PulseTemplate,
    WorkedExampleConfig,
    fit_loglog_slope,
    reference_species,
    run_order_asymmetry_scan,
    run_worked_example,
)
from .graphs import (
    AttributedGraph,
    Cospan,
    GraphMorphism,
    compose_graph_morphisms,
    is_monomorphism,
    pushout_along_monos,
    verify_pushout_universal_property,
)
from .laws import (
    LawReport,
    NaturalTransformationData,
    SpeciesFunctor,
    check_adjunction,
    check_compatibility,
    check_functor_laws,
    check_lipschitz,
    check_naturality,
)
from .liealg import (
    BchResult,
    bch_truncated,
    commutator,
    effective_mixture_generator,
    estimate_generator,
    matrix_exp,
    matrix_log,
)
from .programs import (
    Extraction,
    InternalState,
    Program,
    ReferenceDynamics,
    StateLayout,
    concatenate,
    evolve,
    extract,
    flow_matrix,
    programs_equivalent_at,
)

__version__ = "0.1.0"
