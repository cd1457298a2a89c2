"""Parser, desugarer, access sets, and program validation."""

from dataclasses import replace

import pytest

from racefree import corpus
from racefree.lang import (
    Acquire,
    Assign,
    Assume,
    BoolLit,
    Instruction,
    ParseError,
    Release,
    Thread,
    access_sets,
    desugar,
    instr_accesses,
    parse_program,
    parse_region_text,
    program_to_source,
    validate_program,
    vars_of_bool,
)


def test_parse_coupled_xy_shape():
    """Two threads, three variables, one lock, three assertions."""
    p = desugar(parse_program(corpus.COUPLED_XY))
    assert p.variables == ("x", "y", "z")
    assert p.locks == ("m",)
    assert len(p.threads) == 2
    assert len(p.assertions) == 3
    assert p.post_release_points() == (7, 13)
    assert p.pre_acquire_points() == (1, 10)


def test_empty_thread_body():
    p = desugar(parse_program("var x;\nthread t { }"))
    t = p.threads[0]
    assert t.instructions == ()
    assert t.locations == frozenset({t.entry})


def test_thread_locations_are_computed_once():
    """`validate_program` reads them twice per instruction: building them on
    every read made validation quadratic in the length of a thread."""
    p = desugar(parse_program("var x;\nthread t { " + "x := x + 1; " * 50 + "}"))
    t = p.threads[0]
    assert t.locations is t.locations
    assert len(t.locations) == 51
    assert validate_program(p) == []
    copy = replace(t)  # equality and hashing still see only the fields
    assert copy == t and hash(copy) == hash(t)


def test_assert_recorded_at_source_location():
    p = desugar(parse_program("var x;\nthread t { x := 1; assert(x == 1); }"))
    (a,) = p.assertions
    assert a.location == 2
    assert a.thread == "t"
    # the assert edge is a no-op assume(true) carrying the condition's reads
    edge = [i for i in p.instructions if i.source == 2][0]
    assert edge.command == Assume(BoolLit(True))
    assert edge.assert_reads == frozenset({"x"})


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as e:
        parse_program("var x;\nthread t { y := 1; }")
    assert "undeclared" in str(e.value)
    assert e.value.line == 2

    with pytest.raises(ParseError):
        parse_program("var x;\nthread t { x := ; }")

    with pytest.raises(ParseError, match="duplicate thread"):
        parse_program("var x;\nthread t { }\nthread t { }")


def test_havoc_banned_in_conditions():
    with pytest.raises(ParseError, match="havoc"):
        parse_program("var x;\nthread t { assume(havoc > 0); }")


def test_while_desugars_to_assume_branches():
    src = "var p, y;\nlock m;\nthread t { while (p != 1) { acquire(m); p := y; release(m); } }"
    p = desugar(parse_program(src))
    t = p.threads[0]
    heads = [i for i in t.instructions if i.source == t.entry]
    assert len(heads) == 2  # enter and exit guards
    guards = {i.command.cond.op for i in heads}
    assert guards == {"!=", "=="}  # enter on p != 1, leave on p == 1
    back = [i for i in t.instructions if i.target == t.entry and i.source != t.entry]
    assert len(back) == 1  # loop back edge
    assert back[0].command == Assume(BoolLit(True))


def test_if_without_else_joins_at_successor():
    p = desugar(parse_program("var x;\nthread t { if (x == 0) { x := 1; } x := 2; }"))
    t = p.threads[0]
    guards = [i for i in t.instructions if i.source == t.entry]
    assert len(guards) == 2
    targets = {i.target for i in guards}
    body = [i for i in t.instructions if isinstance(i.command, Assign)
            and i.command.var == "x" and i.source != t.entry]
    # both guard edges reach the join point, one directly and one via the body
    join = body[0].target
    assert join in targets


def test_desugar_is_idempotent():
    for src in corpus.SOURCES.values():
        p = desugar(parse_program(src))
        assert desugar(p) == p


def test_print_parse_round_trip():
    for src in corpus.SOURCES.values():
        ast = parse_program(src)
        assert parse_program(program_to_source(ast)) == ast


def test_round_trip_covers_nested_control_flow():
    src = """var x, y;
lock m;
region r { x, y };

thread t {
  while (x < 3) {
    if (y == 0) {
      x := x + 1;
    } else {
      y := y - 1;
      assume(!(x == y) && y >= 0 || x == 2);
    }
    x := 2 * y + (x - 1);
  }
  x := havoc;
}
"""
    ast = parse_program(src)
    assert parse_program(program_to_source(ast)) == ast


@pytest.mark.parametrize(
    "src,reads,writes",
    [
        ("x := y;", {"y"}, {"x"}),
        ("assume(x == x);", {"x"}, set()),
        ("acquire(m);", set(), set()),
        ("release(m);", set(), set()),
        ("x := 2 * y - z + 1;", {"y", "z"}, {"x"}),
    ],
)
def test_access_sets(src, reads, writes):
    p = desugar(parse_program(f"var x, y, z;\nlock m;\nthread t {{ {src} }}"))
    i = p.threads[0].instructions[0]
    r, w = access_sets(i.command)
    assert r == frozenset(reads)
    assert w == frozenset(writes)


def test_assign_writes_are_singletons():
    for src in corpus.SOURCES.values():
        p = desugar(parse_program(src))
        for i in p.instructions:
            r, w = access_sets(i.command)
            if isinstance(i.command, Assign):
                assert len(w) == 1
            else:
                assert not w


def test_validate_clean_corpus():
    for src in corpus.SOURCES.values():
        assert validate_program(desugar(parse_program(src))) == []


def test_validate_shared_release_target():
    p = corpus.load("coupled_xy")
    t1 = p.threads[0]
    rel = [i for i in t1.instructions if isinstance(i.command, Release)][0]
    # second instruction into the release's target location
    bad = Instruction(2, Assume(BoolLit(True)), rel.target)
    broken = Thread(t1.name, t1.body, t1.entry, t1.instructions + (bad,))
    diags = validate_program(replace(p, threads=(broken, p.threads[1])))
    assert any("target" in d.message for d in diags)


def test_validate_undeclared_lock():
    p = corpus.load("coupled_xy")
    t1 = p.threads[0]
    bad = Instruction(t1.entry, Acquire("nope"), 2)
    broken = Thread(t1.name, t1.body, t1.entry, (bad,) + t1.instructions[1:])
    diags = validate_program(replace(p, threads=(broken, p.threads[1])))
    assert any("undeclared lock" in d.message for d in diags)


def test_region_file_parsing():
    rg = parse_region_text("region rxy { x, y };\n", ("x", "y", "z"))
    assert rg.region_of("x") == rg.region_of("y") == "rxy"
    assert rg.region_of("z") == "z"
    assert rg.index_partition(("x", "y", "z")) == ((0, 1), (2,))


def test_default_regions_are_singletons():
    p = corpus.load("coupled_xy")
    assert p.regions.is_singleton()


def test_instr_accesses_include_assert_reads(coupled_xy):
    edge = [i for i in coupled_xy.instructions if i.source == 11][0]
    reads, writes = instr_accesses(edge)
    assert reads == frozenset({"x", "y"})
    assert writes == frozenset()
    assert vars_of_bool(coupled_xy.assertions[2].cond) == frozenset({"x", "y"})
