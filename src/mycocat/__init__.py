"""mycocat: compositional modelling of mycelial networks.

Finite attributed graphs with pushout-based fusion, environment and
network states with admissible transformations, piecewise-constant control
programs over a bilinear reference dynamics, matrix Lie machinery for
order effects, law-checking harnesses, and the two-pulse order-asymmetry
experiment.

The names below are loaded from their submodule on first use (PEP 562),
so ``import mycocat`` loads no numpy; ``mycocat.pushout_along_monos``
loads only the numpy-free ``graphs`` module.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the names the package exports from it.
_EXPORTS = {
    "envmyc": (
        "Constraints",
        "DistanceWeights",
        "EnvBatch",
        "EnvMorphism",
        "EnvObject",
        "FieldRule",
        "MycMorphism",
        "MycObject",
        "anastomosis",
        "anastomosis_with_injections",
        "apply_env_morphism",
        "compose_env_morphisms",
        "compose_myc_morphisms",
        "env_distance",
        "env_distances",
        "myc_distance",
        "transport_myc",
    ),
    "errors": ("MycocatError",),
    "experiments": (
        "AsymmetryReport",
        "ExposureExperiment",
        "PulseTemplate",
        "WorkedExampleConfig",
        "fit_loglog_slope",
        "reference_species",
        "run_order_asymmetry_scan",
        "run_worked_example",
    ),
    "graphs": (
        "AttributedGraph",
        "Cospan",
        "GraphMorphism",
        "compose_graph_morphisms",
        "is_monomorphism",
        "pushout_along_monos",
        "verify_pushout_universal_property",
    ),
    "laws": (
        "LawReport",
        "NaturalTransformationData",
        "SpeciesFunctor",
        "check_adjunction",
        "check_compatibility",
        "check_functor_laws",
        "check_lipschitz",
        "check_naturality",
    ),
    "liealg": (
        "BchResult",
        "bch_truncated",
        "commutator",
        "effective_mixture_generator",
        "estimate_generator",
        "matrix_exp",
        "matrix_log",
    ),
    "programs": (
        "Extraction",
        "InternalState",
        "PieceTable",
        "Program",
        "ReferenceDynamics",
        "StateLayout",
        "concatenate",
        "evolve",
        "extract",
        "flow_matrix",
        "programs_equivalent_at",
        "state_distances",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    """Import the submodule that defines ``name`` and bind the name here, so
    later lookups do not come back; a submodule name imports that module."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
