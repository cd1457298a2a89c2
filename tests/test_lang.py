"""Parser, desugarer, access sets, and program validation."""

from dataclasses import replace

import pytest

from racefree import corpus
from racefree.lang import (
    HAVOC,
    Acquire,
    Assign,
    Assume,
    BoolLit,
    BoolOp,
    Expr,
    Instruction,
    Linear,
    ParseError,
    Release,
    Thread,
    access_sets,
    desugar,
    eval_bool,
    eval_expr,
    instr_accesses,
    parse_program,
    parse_region_text,
    print_command,
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
    assert p.release_points == {"m": (7, 13)}
    assert p.acquire_points == {"m": (1, 10)}


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


def test_sums_and_chains_parse_flat_as_printed():
    p = parse_program("var x, y;\nthread t { x := ((x - y) - (2 * (3 * (y + havoc)))) - (x);"
                      " assume((x > 0 || y < 1) || x == 2 && (y != 3 || x < y)); }")
    assign, assume = p.threads[0].body
    # the leading groups are spliced in, the groups of one term unwrapped
    group = Expr(((1, (), "y"), (1, (), HAVOC)))
    assert assign.expr.terms == (
        (1, (), "x"), (-1, (), "y"), (-1, (2, 3), group), (-1, (), "x"))
    assert print_command(assign) == "x := x - y - 2 * 3 * (y + havoc) - x"
    cond = assume.cond
    assert cond.op == "||" and len(cond.args) == 3
    assert isinstance(cond.args[2], BoolOp) and cond.args[2].op == "&&"
    assert print_command(assume) == "assume(x > 0 || y < 1 || x == 2 && (y != 3 || x < y))"


def test_linear_view_keeps_zero_coefficient_reads_and_havoc_order():
    p = parse_program("var x, y;\nthread t { x := y - y + 2 * (havoc - 3 * x) - 4 + havoc; }")
    assert p.threads[0].body[0].expr.linear == Linear(
        const=-4, coeffs={"x": -6}, havocs=(2, 1), reads=frozenset({"x", "y"}))


def test_eval_expr_consumes_havoc_choices_in_order():
    p = parse_program("var x, y;\nthread t { x := havoc; y := 3 * (x - havoc) + havoc;"
                      " x := y; x := 4; x := 0 - y; }")
    single, nested, *plain = (s.expr for s in p.threads[0].body)
    env = {"x": 5, "y": 2}
    assert eval_expr(single, env, (7,)) == 7
    assert eval_expr(nested, env, (1, 2)) == 3 * (5 - 1) + 2
    assert [eval_expr(e, env) for e in plain] == [2, 4, -2]
    assert eval_bool(parse_program("var x, y;\nthread t { assume(x < 3 && y >= 0); }")
                     .threads[0].body[0].cond, {"x": 2, "y": 0})


def test_eval_expr_rejects_unused_and_missing_havoc_choices():
    p = parse_program("var x;\nthread t { x := x + 1; x := havoc; x := 2 * (x + havoc); }")
    plain, single, nested = (s.expr for s in p.threads[0].body)
    with pytest.raises(ValueError, match="unused havoc choices"):
        eval_expr(plain, {"x": 0}, (1,))
    with pytest.raises(ValueError, match="unused havoc choices"):
        eval_expr(single, {"x": 0}, (1, 2))
    for e in (single, nested):
        with pytest.raises(ValueError, match="havoc occurrence without a chosen value"):
            eval_expr(e, {"x": 0})


@pytest.mark.parametrize(
    "src,reads,writes",
    [
        ("x := y;", {"y"}, {"x"}),
        ("assume(x == x);", {"x"}, set()),
        ("acquire(m);", set(), set()),
        ("release(m);", set(), set()),
        ("x := 2 * y - z + 1;", {"y", "z"}, {"x"}),
        ("x := y - y + 3 * (z - z);", {"y", "z"}, {"x"}),
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
