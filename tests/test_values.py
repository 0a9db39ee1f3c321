"""Value semantics of the package's records and validated values, and an
import that generates no code."""
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from spannerlab.graphs import WeightedGraph
from spannerlab.hardness import (
    Clause,
    ClauseGadget,
    ReductionOutput,
    SatInstance,
    VariableGadget,
)
from spannerlab.oracle import OracleResult
from spannerlab.prune import IterationLog, PruneState, RoundLog, ScalingLog

from test_hardness import PreprocessResult

SAT = SatInstance(2, (Clause("above", (0, 1)), Clause("below", (0, 1))), ((0,), (0,)), ((1,), (1,)))
ROUND = dict(source=0, target=2, length=5, beta=F(1),
             multiset_weight=5, pruned_weight=5, pool_weight_remaining=0)

# (type, fields in declaration order, one field changed, hashable)
CASES = [
    (WeightedGraph, dict(n=3, edges=((0, 1, F(1)), (1, 2, F(1, 2))), declared_planar=False),
     dict(declared_planar=True), True),
    (Clause, dict(side="above", literals=(0, 1)), dict(literals=(1, 0)), True),
    (SatInstance, dict(num_vars=2, clauses=SAT.clauses, pos_order=((0,), (0,)), neg_order=((1,), (1,))),
     dict(clauses=(Clause("above", (1, 0)), Clause("below", (0, 1)))), True),
    (OracleResult, dict(opt_weight=F(5, 2), opt_edges=frozenset({(0, 1)}), nodes_explored=3),
     dict(nodes_explored=4), True),
    (RoundLog, ROUND, dict(beta=F(3, 2)), True),
    (IterationLog, dict(stretch=F(5, 4), total_weight=10), dict(total_weight=11), True),
    (ScalingLog, dict(iterations=[IterationLog(F(1), 2)], inner_stretch=F(1)),
     dict(inner_stretch=None), False),
    (PreprocessResult, dict(instance=SAT, forced={2: True}, kept_vars=(0, 1)), dict(kept_vars=(1, 0)), False),
    (VariableGadget, dict(chord=(0, 1), true_edges=((1, 2),), false_edges=((2, 3),),
                          apex_edges=(), terminal_edges=((3, 4),)), dict(apex_edges=((4, 5),)), True),
    (ClauseGadget, dict(spine=(0, 1), connector_edges=()),
     dict(spine=(0, 2)), True),
    (ReductionOutput, dict(graph=WeightedGraph(2), W=F(1), labels={"a": 0}, h=(1,), instance=SAT,
                           eps=F(1, 10), variables=(), clause_gadgets=()),
     dict(eps=F(1, 5)), False),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, change, hashable", CASES, ids=IDS)
def test_equal_fields_give_equal_values(cls, fields, change, hashable):
    a, b = cls(**fields), cls(**fields)
    assert cls._fields == tuple(fields)
    assert a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    changed = cls(**{**fields, **change})
    assert a != changed and not a == changed


@pytest.mark.parametrize("cls, fields, change, hashable", CASES, ids=IDS)
def test_repr_names_every_field(cls, fields, change, hashable):
    shown = ", ".join(f"{k}={v!r}" for k, v in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls, fields, change, hashable", CASES, ids=IDS)
def test_assignment_raises(cls, fields, change, hashable):
    value = cls(**fields)
    name, new = next(iter(change.items()))
    with pytest.raises(AttributeError):
        setattr(value, name, new)
    with pytest.raises(AttributeError):
        value.unknown = 1
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) == fields[name]


def test_validated_values_equal_only_their_own_class():
    class Graph(WeightedGraph):
        pass

    g = WeightedGraph(2, ((0, 1, F(1)),))
    assert g != Graph(2, ((0, 1, F(1)),))
    assert g != (2, g.edges, False)
    assert Clause("above", (0,)) != ("above", (0,))


def test_cached_properties_still_cache():
    g = WeightedGraph(3, ((0, 1, F(1, 2)), (1, 2, F(1, 3))))
    assert g.scale == 6 and g.int_weights == {(0, 1): 3, (1, 2): 2}
    assert g.int_weights is g.int_weights and g.weights is g.weights
    assert g == WeightedGraph(3, g.edges)  # caches do not enter equality


def test_defaults_match_the_previous_records():
    assert WeightedGraph(2) == WeightedGraph(2, (), False)
    assert ScalingLog([]).inner_stretch is None
    assert SatInstance(2, SAT.clauses) == SAT


def test_prune_state_equality_ignores_tail():
    a, b = PruneState(), PruneState()
    a.tail = object()
    assert a == b and repr(a) == repr(b) == "PruneState(added=set(), removed=set(), rounds=[])"
    a.added.add((0, 1))
    assert a != b
    b.added.add((0, 1))
    b.rounds.append(RoundLog(**ROUND))
    assert a != b
    a.rounds.append(RoundLog(**ROUND))
    assert a == b
    with pytest.raises(TypeError):
        hash(a)  # mutable


def test_importing_the_cli_generates_no_code():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "import sys, spannerlab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
