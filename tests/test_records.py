"""The immutable value records: every class built on ``errors.Record``.

Each record writes its own ``__init__``; the base gives it frozen
attributes, equality and hashing on the tuple of fields, ``repr`` and
``replace``. These tests pin that contract on all 28 record classes.
"""

import inspect

import numpy as np
import pytest

from mycocat import envmyc, experiments, graphs, laws, liealg, programs
from mycocat.envmyc import (
    Constraints,
    DistanceWeights,
    EnvBatch,
    EnvMorphism,
    EnvObject,
    FieldRule,
    MycMorphism,
    MycObject,
)
from mycocat.errors import ConfigError, FrozenRecordError, MycocatError, Record
from mycocat.experiments import (
    AsymmetryReport,
    ExposureExperiment,
    PulseTemplate,
    WorkedExampleConfig,
    WorkedExampleResult,
)
from mycocat.graphs import AttributedGraph, Cospan, GraphMorphism, identity_morphism
from mycocat.laws import (
    DirectEmbedding,
    FiniteInstance,
    LawReport,
    NaturalTransformationData,
    NonCausalSpecies,
    SpeciesFunctor,
    identity_adjunction_instance,
)
from mycocat.liealg import BchResult
from mycocat.programs import (
    Extraction,
    InternalState,
    PieceTable,
    Program,
    ReferenceDynamics,
    StateLayout,
)


def pair():
    return AttributedGraph(("a", "b"), (("e", ("a", "b")),))


def single():
    return AttributedGraph(("a",), ())


def layout(features=1):
    return StateLayout(single(), features)


# Dynamics equal only themselves, so every factory that embeds dynamics
# shares this one and two species built on it have equal fields.
DYNAMICS = ReferenceDynamics(np.array([[0.0]]), (np.array([[1.0]]),))


def species():
    return SpeciesFunctor("s", DYNAMICS, Extraction(layout()))


def network():
    return MycObject(pair(), {"e": 1.0}, {"a": (1.0,), "b": (2.0,)})


def env():
    return EnvObject(single(), {"a": 1.0}, {"a": (0.5,)}, Constraints())


def halve(vector):
    return 0.5 * vector


# Record class -> keyword arguments of a fresh instance; two calls build
# equal, but not identical, field values.
RECORDS = {
    AttributedGraph: lambda: {"nodes": ("a", "b"), "edges": (("e", ("a", "b")),)},
    GraphMorphism: lambda: {
        "source": pair(), "target": pair(), "node_map": {"a": "a", "b": "b"},
        "edge_map": {"e": "e"},
    },
    Cospan: lambda: {
        "apex": pair(), "left": identity_morphism(pair()), "right": identity_morphism(pair())
    },
    Constraints: lambda: {"humidity": (0.0, 0.5), "phi_bounds": ((0.0, 2.0),), "budget": 3.0},
    EnvObject: lambda: {
        "graph": single(), "rho": {"a": 1.0}, "phi": {"a": (0.5,)}, "chi": Constraints()
    },
    EnvBatch: lambda: {
        "graph": single(), "chi": Constraints(), "fields": np.array([[[1.0, 0.5]]])
    },
    FieldRule: lambda: {"delta": {"a": 0.5}},
    EnvMorphism: lambda: {
        "fg": identity_morphism(single()), "rho_rule": FieldRule(),
        "phi_rules": [FieldRule(factor=2.0)],
    },
    MycObject: lambda: {"graph": pair(), "sigma": {"e": 1.0}, "omega": {"a": (1,), "b": (2,)}},
    DistanceWeights: lambda: {"omega": 1.0, "sigma": 2.0, "structure": 3.0},
    MycMorphism: lambda: {
        "source": network(), "target": network(), "graph_map": identity_morphism(pair())
    },
    Program: lambda: {"pieces": ((0.5, (0.3,)), (1, (0,)))},
    PieceTable: lambda: {"lengths": [0.5], "inputs": [[0.3]], "counts": [1]},
    StateLayout: lambda: {"graph": single(), "feature_count": 1},
    InternalState: lambda: {"vector": [1.0], "layout": layout()},
    ReferenceDynamics: lambda: {"drift": [[0.0]], "controls": ([[1.0]],)},
    Extraction: lambda: {"layout": layout(), "sigma": 2},
    LawReport: lambda: {"law": "identity", "samples": 3, "max_residual": 0.0, "tolerance": 1e-9},
    SpeciesFunctor: lambda: {
        "label": "s", "dynamics": DYNAMICS, "extraction": Extraction(layout())
    },
    NaturalTransformationData: lambda: {"state_map": halve},
    FiniteInstance: lambda: vars(identity_adjunction_instance()[0]).copy(),
    DirectEmbedding: lambda: {"layout": layout(2), "channels": 1},
    BchResult: lambda: {
        "order": 1, "value": np.array([[1.0]]), "terms": ((1, np.array([[1.0]])),)
    },
    PulseTemplate: lambda: {"channel": 1, "amplitude": 0.5},
    ExposureExperiment: lambda: {
        "species": species(), "pulse_p": PulseTemplate(0), "pulse_q": PulseTemplate(0),
        "seed": 7,
    },
    AsymmetryReport: lambda: {
        "rows": ((0.1, 0.01),), "excluded": (), "slope": 2.0, "intercept": 0.0,
        "r_squared": 1.0, "commutator_norm": 4.0, "verdict": "quadratic",
        "scaling": "amplitude", "weights": (1.0, 1.0, 1.0), "seed": 0,
    },
    WorkedExampleConfig: lambda: {"n_sites": 4, "seed": 3},
    WorkedExampleResult: lambda: {
        "config": WorkedExampleConfig(), "env_initial": env(), "env_after_a": env(),
        "env_after_b": env(), "env_after_ab": env(), "scans": {}, "law_reports": (),
    },
}
IDENTITY_EQUALITY = (EnvBatch, PieceTable, InternalState, ReferenceDynamics, BchResult)
CLASSES = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)


def build(cls):
    return cls(**RECORDS[cls]())


def field_names(cls):
    return list(inspect.signature(cls).parameters)


def test_every_record_class_is_covered():
    declared = {
        cls
        for module in (envmyc, experiments, graphs, laws, liealg, programs)
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, Record) and "__init__" in vars(cls)
    }
    assert declared == set(RECORDS)
    assert len(RECORDS) == 28


@CLASSES
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = build(cls)
    for name in [*field_names(cls), "no_such_field"]:
        with pytest.raises(FrozenRecordError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, None)
        with pytest.raises(FrozenRecordError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    with pytest.raises(MycocatError):
        record.no_such_field = 1
    with pytest.raises(AttributeError):
        del record.no_such_field
    assert set(vars(record)) >= set(field_names(cls))


@CLASSES
def test_equal_fields_give_equal_records_and_hashes(cls):
    first, second = build(cls), build(cls)
    if cls in IDENTITY_EQUALITY:
        assert first != second and first == first
        assert hash(first) != hash(second)
        return
    assert first == second and not first != second
    values = tuple(getattr(first, name) for name in field_names(cls))
    try:
        expected = hash(values)
    except TypeError:  # a dict or array field: no hash, as for the tuple
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second) == expected


def test_records_holding_arrays_compare_without_raising():
    # a two-entry vector and 24 x 24 matrices have no single truth value;
    # each comparison is a bool, not numpy's ambiguous-truth ValueError
    drift, control = np.random.default_rng(5).normal(size=(2, 24, 24))
    dyn, twin = (ReferenceDynamics(drift, (control,)) for _ in range(2))
    state, other = (InternalState([1.0, 2.0], layout(2)) for _ in range(2))
    bch, also = (liealg.bch_truncated(drift, control, 0.1, 3) for _ in range(2))
    wide = Extraction(layout(24))
    for record, copy in ((dyn, twin), (state, other), (bch, also)):
        assert record == record and record != copy
    assert SpeciesFunctor("s", dyn, wide) == SpeciesFunctor("s", dyn, wide)
    assert SpeciesFunctor("s", dyn, wide) != SpeciesFunctor("s", twin, wide)


@CLASSES
def test_equal_fields_of_another_class_are_not_equal(cls):
    twin = type("Twin", (cls,), {})
    kwargs = RECORDS[cls]()
    record, other = cls(**kwargs), twin(**kwargs)
    assert record != other and other != record
    assert record.__eq__(other) is NotImplemented
    assert field_names(twin) == field_names(cls)


def test_a_subclass_without_fields_of_its_own_is_another_class():
    base = species()
    mutant = NonCausalSpecies(base.label, base.dynamics, base.extraction)
    assert mutant != base
    assert mutant == NonCausalSpecies(base.label, base.dynamics, base.extraction)
    assert repr(mutant) == repr(base).replace("SpeciesFunctor", "NonCausalSpecies", 1)


@CLASSES
def test_positional_and_keyword_construction_agree(cls):
    kwargs = RECORDS[cls]()
    positional = [
        kwargs.get(name, param.default)
        for name, param in inspect.signature(cls).parameters.items()
    ]
    record, keyword = cls(*positional), cls(**kwargs)
    assert repr(record) == repr(keyword)
    if cls not in IDENTITY_EQUALITY:
        assert record == keyword


@CLASSES
def test_missing_unknown_and_repeated_arguments_are_type_errors(cls):
    kwargs = RECORDS[cls]()
    first = field_names(cls)[0]
    with pytest.raises(TypeError, match="unexpected keyword argument 'no_such_field'"):
        cls(**kwargs, no_such_field=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
        cls(kwargs[first], **kwargs)
    required = [
        name for name, param in inspect.signature(cls).parameters.items()
        if param.default is inspect.Parameter.empty
    ]
    if required:
        last = required[-1]
        with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{last}'"):
            cls(**{k: v for k, v in kwargs.items() if k != last})


@CLASSES
def test_replace_builds_through_init(cls):
    record = build(cls)
    copy = record.replace()
    assert type(copy) is cls and copy is not record
    assert repr(copy) == repr(record)
    with pytest.raises(TypeError, match="no_such_field"):
        record.replace(no_such_field=1)


def test_replace_checks_again():
    config = WorkedExampleConfig()
    with pytest.raises(ConfigError) as direct:
        WorkedExampleConfig(n_sites=0)
    with pytest.raises(ConfigError) as replaced:
        config.replace(n_sites=0)
    assert str(replaced.value) == str(direct.value)
    assert config.replace(seed=5) == WorkedExampleConfig(seed=5)
    assert config.replace(seed=5).seed == 5 and config.seed == WorkedExampleConfig().seed
    # fields are normalised on every construction, replace included
    assert Program().replace(pieces=[[1, [2]]]).pieces == ((1.0, (2.0,)),)


def test_finite_instance_maps_default_to_fresh_dicts():
    maps = ("f_obj", "f_mor", "g_obj", "g_mor")
    kwargs = {k: v for k, v in RECORDS[FiniteInstance]().items() if k not in maps}
    first, second = FiniteInstance(**kwargs), FiniteInstance(**kwargs)
    assert first.f_obj == {} and first.g_mor == {}
    assert first.f_obj is not second.f_obj and first.f_obj is not first.f_mor


# repr strings as the frozen dataclasses printed them
REPRS = [
    (lambda: PulseTemplate(channel=0), "PulseTemplate(channel=0, amplitude=1.0, duration=1.0)"),
    (
        pair,
        "AttributedGraph(nodes=('a', 'b'), edges=(('e', ('a', 'b')),), directed=False)",
    ),
    (
        lambda: LawReport("identity", 3, 0.0, 1e-9, seed=4, witness={"i": 1}),
        "LawReport(law='identity', samples=3, max_residual=0.0, tolerance=1e-09, seed=4,"
        " witness={'i': 1})",
    ),
    (
        lambda: Extraction(layout(), 2),
        "Extraction(layout=StateLayout(graph=AttributedGraph(nodes=('a',), edges=(),"
        " directed=False), feature_count=1), sigma=2.0)",
    ),
    (
        lambda: Constraints(),
        "Constraints(humidity=(0.0, 1.0), temperature=(0.0, 40.0), phi_bounds=((0.0, 1.0),),"
        " budget=inf)",
    ),
]


@pytest.mark.parametrize("make, expected", REPRS, ids=[r[1].split("(")[0] for r in REPRS])
def test_repr_is_the_dataclass_form(make, expected):
    assert repr(make()) == expected


def test_repr_names_a_local_class_by_its_qualified_name():
    class Local(PulseTemplate):
        pass

    assert repr(Local(2)) == (
        "test_repr_names_a_local_class_by_its_qualified_name.<locals>.Local"
        "(channel=2, amplitude=1.0, duration=1.0)"
    )
