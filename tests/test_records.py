"""The records of racefree: NamedTuples and `lang`'s value base, never
dataclasses.  Equality is per class, equal values hash equal, no field can be
assigned, and each cached view is computed once per object."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import racefree
from racefree import corpus
from racefree.cli import run_cli
from racefree.lang import (
    Acquire,
    Assign,
    Assume,
    Cmp,
    Expr,
    Instruction,
    NotExpr,
    Program,
    Release,
    parse_program,
)

MODULES = [importlib.import_module(f"racefree.{m.name}")
           for m in pkgutil.iter_modules(racefree.__path__)]


def defined_classes():
    """Every class defined in a racefree module, by qualified name."""
    return {f"{mod.__name__}.{name}": cls for mod in MODULES
            for name, cls in vars(mod).items()
            if inspect.isclass(cls) and cls.__module__ == mod.__name__}


def record_classes():
    """The classes with fields: NamedTuples and value-base classes."""
    return {name: cls for name, cls in defined_classes().items()
            if issubclass(cls, tuple) and getattr(cls, "_fields", ())}


def test_no_racefree_class_is_a_dataclass():
    """A dataclass statement generates and compiles its methods at import
    time, which is most of the cost of racefree's cold import."""
    classes = defined_classes()
    assert len(classes) > 40
    assert [name for name, cls in classes.items() if dataclasses.is_dataclass(cls)] == []


def test_records_of_different_classes_never_compare_equal():
    c = Cmp("==", Expr.of("x"), Expr.of(1))
    assert Acquire("m") != Release("m")
    assert Assume(c) != NotExpr(c)
    assert Acquire("m") == Acquire("m") and Assume(c) == Assume(Cmp("==", Expr.of("x"),
                                                                     Expr.of(1)))
    assert Acquire("m") != ("m",) and ("m",) != Acquire("m")
    assert not Acquire("m") == ("m",) and not ("m",) == Acquire("m")


@pytest.mark.parametrize("name", sorted(record_classes()))
def test_no_field_of_a_record_can_be_assigned(name):
    cls = record_classes()[name]
    fields = cls._fields
    record = cls(*[None] * len(fields))
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, 1)
        with pytest.raises(AttributeError):
            delattr(record, f)


def test_equal_values_hash_equal_replace_copies_included():
    p = parse_program(corpus.COUPLED_XY)
    q = parse_program(corpus.COUPLED_XY)
    values = [p, *p.threads, *p.instructions, *p.assertions, p.regions,
              *(i.command for i in p.instructions)]
    twins = [q, *q.threads, *q.instructions, *q.assertions, q.regions,
             *(i.command for i in q.instructions)]
    for a, b in zip(values, twins):
        assert a is not b and a == b and hash(a) == hash(b)
        twin = a._replace()
        assert twin is not a and twin == a and hash(twin) == hash(a)
    for copied in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert copied == p and hash(copied) == hash(p) and type(copied) is Program
    moved = p.instructions[0]._replace(target=99)
    assert moved != p.instructions[0] and moved.target == 99
    assert moved.command is p.instructions[0].command
    with pytest.raises(TypeError):
        p._replace(nope=1)


def test_value_base_arguments_and_repr():
    i = Instruction(1, Acquire("m"), 2)
    assert i == Instruction(source=1, command=Acquire("m"), target=2, assert_reads=frozenset())
    assert i.assert_reads == frozenset()
    assert repr(i) == ("Instruction(source=1, command=Acquire(lock='m'), target=2, "
                       "assert_reads=frozenset())")
    for bad in (lambda: Instruction(1, Acquire("m")), lambda: Acquire("m", "n"),
                lambda: Acquire("m", lock="n"), lambda: Assign(var="x", expression=None)):
        with pytest.raises(TypeError):
            bad()


def test_cached_views_are_computed_once_per_object():
    p = parse_program(corpus.COUPLED_XY)
    assign = next(i.command for i in p.instructions if isinstance(i.command, Assign))
    cond = p.assertions[0].cond
    t = p.threads[0]
    assert assign.expr.linear is assign.expr.linear
    assert cond.guard is cond.guard
    assert t.locations is t.locations
    for table in ("instructions", "by_source", "by_target", "release_points",
                  "acquire_points"):
        assert getattr(p, table) is getattr(p, table)
        # a copy builds its own tables, equal to the original's
        twin = p._replace()
        assert getattr(twin, table) is not getattr(p, table)
        assert getattr(twin, table) == getattr(p, table)
    # views are not fields: equality and hashing ignore them
    fresh = parse_program(corpus.COUPLED_XY)
    assert fresh == p and hash(fresh) == hash(p)


def test_with_unchanged_regions_is_the_program_itself(coupled_xy_regions):
    p = parse_program(corpus.COUPLED_XY)
    assert p.with_regions(p.regions) is p
    assert p.with_regions(p.regions._replace()) is p
    q = p.with_regions(coupled_xy_regions)
    assert q is not p and q.regions == coupled_xy_regions and q.threads is p.threads


def test_one_analyze_job_builds_the_edge_index_once(monkeypatch, capsys):
    """Validation builds `by_source` and `by_target`; the analysis reads the
    same tables, since the default regions keep the program as it is."""
    calls = []
    edges = Program._edges

    def counted(self, end):
        calls.append(end)
        return edges(self, end)

    monkeypatch.setattr(Program, "_edges", counted)
    assert run_cli(["analyze", "--deterministic", "coupled_xy"]) == 1
    assert sorted(calls) == ["source", "target"]
