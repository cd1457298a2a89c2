"""Concurrent toy language: AST, parser, desugaring to assume/goto form.

A program is a set of shared integer variables, locks, an optional region
partition of the variables, and a fixed list of threads.  After desugaring
each thread is a control-flow graph whose edges carry exactly four kinds of
commands: assignment, assume, acquire, release.  Structured `while`/`if`
statements become assume-guarded branch edges and `assert` becomes a no-op
edge registered in the program's assertion table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping, Optional, Union


# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class HavocExpr:
    """Nondeterministic integer; resolved from a finite choice set at runtime."""


@dataclass(frozen=True)
class BinExpr:
    op: str  # '+' or '-'
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class ScaledExpr:
    """Constant multiplication `k * e` (the only multiplication allowed)."""

    coef: int
    expr: "Expr"


Expr = Union[IntLit, VarRef, HavocExpr, BinExpr, ScaledExpr]


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class Cmp:
    op: str  # ==, !=, <, <=, >, >=
    left: Expr
    right: Expr


@dataclass(frozen=True)
class BoolOp:
    op: str  # '&&' or '||'
    left: "BoolExpr"
    right: "BoolExpr"


@dataclass(frozen=True)
class NotExpr:
    expr: "BoolExpr"


BoolExpr = Union[BoolLit, Cmp, BoolOp, NotExpr]


def vars_of_expr(e: Expr) -> frozenset[str]:
    if isinstance(e, VarRef):
        return frozenset({e.name})
    if isinstance(e, BinExpr):
        return vars_of_expr(e.left) | vars_of_expr(e.right)
    if isinstance(e, ScaledExpr):
        return vars_of_expr(e.expr)
    return frozenset()


def vars_of_bool(b: BoolExpr) -> frozenset[str]:
    if isinstance(b, Cmp):
        return vars_of_expr(b.left) | vars_of_expr(b.right)
    if isinstance(b, BoolOp):
        return vars_of_bool(b.left) | vars_of_bool(b.right)
    if isinstance(b, NotExpr):
        return vars_of_bool(b.expr)
    return frozenset()


def havoc_slots(e: Expr) -> int:
    """Number of independent havoc occurrences in `e`."""
    if isinstance(e, HavocExpr):
        return 1
    if isinstance(e, BinExpr):
        return havoc_slots(e.left) + havoc_slots(e.right)
    if isinstance(e, ScaledExpr):
        return havoc_slots(e.expr)
    return 0


def eval_expr(e: Expr, env: Mapping[str, int], choices: tuple[int, ...] = ()) -> int:
    """Evaluate `e` under `env`; havoc occurrences consume `choices` left to right."""
    value, used = _eval_expr(e, env, choices, 0)
    if used != len(choices):
        raise ValueError("unused havoc choices")
    return value


def _eval_expr(e, env, choices, idx):
    if isinstance(e, IntLit):
        return e.value, idx
    if isinstance(e, VarRef):
        return env[e.name], idx
    if isinstance(e, HavocExpr):
        if idx >= len(choices):
            raise ValueError("havoc occurrence without a chosen value")
        return choices[idx], idx + 1
    if isinstance(e, BinExpr):
        l, idx = _eval_expr(e.left, env, choices, idx)
        r, idx = _eval_expr(e.right, env, choices, idx)
        return (l + r) if e.op == "+" else (l - r), idx
    if isinstance(e, ScaledExpr):
        v, idx = _eval_expr(e.expr, env, choices, idx)
        return e.coef * v, idx
    raise TypeError(f"not an expression: {e!r}")


CMP_FN = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_bool(b: BoolExpr, env: Mapping[str, int]) -> bool:
    if isinstance(b, BoolLit):
        return b.value
    if isinstance(b, Cmp):
        return CMP_FN[b.op](eval_expr(b.left, env), eval_expr(b.right, env))
    if isinstance(b, BoolOp):
        if b.op == "&&":
            return eval_bool(b.left, env) and eval_bool(b.right, env)
        return eval_bool(b.left, env) or eval_bool(b.right, env)
    if isinstance(b, NotExpr):
        return not eval_bool(b.expr, env)
    raise TypeError(f"not a boolean expression: {b!r}")


def linear_terms(e: Expr) -> tuple[dict[str, int], int, int]:
    """Decompose `e` into (coefficients, constant, havoc slot count)."""
    if isinstance(e, IntLit):
        return {}, e.value, 0
    if isinstance(e, VarRef):
        return {e.name: 1}, 0, 0
    if isinstance(e, HavocExpr):
        return {}, 0, 1
    if isinstance(e, BinExpr):
        lc, lk, lh = linear_terms(e.left)
        rc, rk, rh = linear_terms(e.right)
        sign = 1 if e.op == "+" else -1
        out = dict(lc)
        for v, c in rc.items():
            out[v] = out.get(v, 0) + sign * c
        out = {v: c for v, c in out.items() if c != 0}
        return out, lk + sign * rk, lh + rh
    if isinstance(e, ScaledExpr):
        c, k, h = linear_terms(e.expr)
        if h:
            raise ValueError("havoc under constant multiplication is not supported")
        return {v: e.coef * cv for v, cv in c.items()}, e.coef * k, 0
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Commands: the edge labels of the CFG, and statements of their own


@dataclass(frozen=True)
class Assign:
    var: str
    expr: Expr


@dataclass(frozen=True)
class Assume:
    cond: BoolExpr


@dataclass(frozen=True)
class Acquire:
    lock: str


@dataclass(frozen=True)
class Release:
    lock: str


Command = Union[Assign, Assume, Acquire, Release]


# ---------------------------------------------------------------------------
# Structured statements (pre-desugar)


@dataclass(frozen=True)
class AssertStmt:
    cond: BoolExpr


@dataclass(frozen=True)
class WhileStmt:
    cond: BoolExpr
    body: tuple["Stmt", ...]


@dataclass(frozen=True)
class IfStmt:
    cond: BoolExpr
    then_body: tuple["Stmt", ...]
    else_body: tuple["Stmt", ...]


Stmt = Union[Command, AssertStmt, WhileStmt, IfStmt]


_CMP_NEG = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def negate_bool(b: "BoolExpr") -> "BoolExpr":
    """Negation with comparisons flipped in place of a Not wrapper."""
    if isinstance(b, BoolLit):
        return BoolLit(not b.value)
    if isinstance(b, Cmp):
        return Cmp(_CMP_NEG[b.op], b.left, b.right)
    if isinstance(b, NotExpr):
        return b.expr
    if isinstance(b, BoolOp):
        op = "||" if b.op == "&&" else "&&"
        return BoolOp(op, negate_bool(b.left), negate_bool(b.right))
    raise TypeError(f"not a boolean expression: {b!r}")


# ---------------------------------------------------------------------------
# The CFG program model (post-desugar)


@dataclass(frozen=True)
class Instruction:
    source: int
    command: Command
    target: int
    # Variables read by an assertion registered at `source`; the command
    # itself is assume(true) so the analyzed CFG carries no extra commands,
    # but race checking must still see the assertion's reads.
    assert_reads: frozenset[str] = frozenset()


def access_sets(c: Command) -> tuple[frozenset[str], frozenset[str]]:
    """(reads, writes) of a single command."""
    if isinstance(c, Assign):
        return vars_of_expr(c.expr), frozenset({c.var})
    if isinstance(c, Assume):
        return vars_of_bool(c.cond), frozenset()
    return frozenset(), frozenset()


def instr_accesses(i: Instruction) -> tuple[frozenset[str], frozenset[str]]:
    """(reads, writes) of an instruction, including registered assertion reads."""
    reads, writes = access_sets(i.command)
    return reads | i.assert_reads, writes


@dataclass(frozen=True)
class Thread:
    name: str
    body: tuple[Stmt, ...] = ()
    entry: Optional[int] = None
    instructions: tuple[Instruction, ...] = ()

    @cached_property
    def locations(self) -> frozenset[int]:
        locs = set()
        if self.entry is not None:
            locs.add(self.entry)
        for i in self.instructions:
            locs.add(i.source)
            locs.add(i.target)
        return frozenset(locs)


@dataclass(frozen=True)
class RegionMap:
    """Partition of the program variables into named regions."""

    members: tuple[tuple[str, tuple[str, ...]], ...]
    declared: tuple[str, ...] = ()

    @staticmethod
    def singletons(variables: tuple[str, ...]) -> "RegionMap":
        return RegionMap(tuple((v, (v,)) for v in variables))

    @staticmethod
    def from_declared(
        variables: tuple[str, ...], declared: dict[str, tuple[str, ...]]
    ) -> "RegionMap":
        """Declared regions, with every uncovered variable in its own region."""
        covered = {v for vs in declared.values() for v in vs}
        members = list(declared.items())
        for v in variables:
            if v not in covered:
                members.append((v, (v,)))
        order = {v: i for i, v in enumerate(variables)}
        members.sort(key=lambda item: min(order[v] for v in item[1]))
        return RegionMap(tuple(members), declared=tuple(sorted(declared)))

    def region_of(self, var: str) -> str:
        for name, vs in self.members:
            if var in vs:
                return name
        raise KeyError(var)

    def region_vars(self, name: str) -> tuple[str, ...]:
        for rname, vs in self.members:
            if rname == name:
                return vs
        raise KeyError(name)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.members)

    def index_partition(self, variables: tuple[str, ...]) -> tuple[tuple[int, ...], ...]:
        """Regions as tuples of variable indices, in declaration order."""
        idx = {v: i for i, v in enumerate(variables)}
        return tuple(tuple(idx[v] for v in vs) for _, vs in self.members)

    def is_singleton(self) -> bool:
        return all(len(vs) == 1 for _, vs in self.members)


@dataclass(frozen=True)
class Assertion:
    location: int
    cond: BoolExpr
    thread: str


@dataclass(frozen=True)
class Program:
    variables: tuple[str, ...]
    locks: tuple[str, ...]
    regions: RegionMap
    threads: tuple[Thread, ...]
    assertions: tuple[Assertion, ...] = ()

    @property
    def is_desugared(self) -> bool:
        return all(t.entry is not None for t in self.threads)

    @property
    def instructions(self) -> tuple[Instruction, ...]:
        return tuple(i for t in self.threads for i in t.instructions)

    def thread_of_location(self, loc: int) -> str:
        for t in self.threads:
            if loc in t.locations:
                return t.name
        raise KeyError(loc)

    def thread_index(self, name: str) -> int:
        for i, t in enumerate(self.threads):
            if t.name == name:
                return i
        raise KeyError(name)

    def post_release_points(self, lock: Optional[str] = None) -> tuple[int, ...]:
        locs = []
        for t in self.threads:
            for i in t.instructions:
                if isinstance(i.command, Release) and (lock is None or i.command.lock == lock):
                    locs.append(i.target)
        return tuple(sorted(locs))

    def pre_acquire_points(self, lock: Optional[str] = None) -> tuple[int, ...]:
        locs = []
        for t in self.threads:
            for i in t.instructions:
                if isinstance(i.command, Acquire) and (lock is None or i.command.lock == lock):
                    locs.append(i.source)
        return tuple(sorted(locs))

    def with_regions(self, regions: RegionMap) -> "Program":
        return replace(self, regions=regions)


# ---------------------------------------------------------------------------
# Lexer


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


_KEYWORDS = {
    "var", "lock", "region", "thread", "assume", "acquire", "release",
    "assert", "while", "if", "else", "havoc", "true", "false",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>:=|==|!=|<=|>=|&&|\|\||[-+*<>!(){};,])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # 'num' | 'ident' | keyword | operator | 'eof'
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup == "num":
            tokens.append(Token("num", lexeme, line, col))
        elif m.lastgroup == "ident":
            kind = lexeme if lexeme in _KEYWORDS else "ident"
            tokens.append(Token(kind, lexeme, line, col))
        elif m.lastgroup == "op":
            tokens.append(Token(lexeme, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables: list[str] = []
        self.locks: list[str] = []
        self.declared_regions: dict[str, tuple[str, ...]] = {}

    # token helpers

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return self.advance()

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    # declarations

    def parse_program(self) -> Program:
        while self.peek().kind in ("var", "lock", "region"):
            self.parse_decl()
        threads: list[Thread] = []
        if self.peek().kind != "thread":
            raise self.error("expected at least one thread definition")
        while self.peek().kind == "thread":
            threads.append(self.parse_thread([t.name for t in threads]))
        self.expect("eof")
        regions = RegionMap.from_declared(tuple(self.variables), self.declared_regions)
        return Program(
            variables=tuple(self.variables),
            locks=tuple(self.locks),
            regions=regions,
            threads=tuple(threads),
        )

    def parse_decl(self) -> None:
        kw = self.advance()
        if kw.kind in ("var", "lock"):
            target = self.variables if kw.kind == "var" else self.locks
            while True:
                name = self.expect("ident")
                if name.text in self.variables or name.text in self.locks:
                    raise ParseError(f"duplicate declaration of {name.text!r}",
                                     name.line, name.col)
                target.append(name.text)
                if self.peek().kind == ",":
                    self.advance()
                    continue
                break
            self.expect(";")
        else:  # region
            name = self.expect("ident")
            if name.text in self.declared_regions:
                raise ParseError(f"duplicate region {name.text!r}", name.line, name.col)
            self.expect("{")
            members = []
            while True:
                member = self.expect("ident")
                if member.text not in self.variables:
                    raise ParseError(f"undeclared variable {member.text!r} in region",
                                     member.line, member.col)
                already = {v for vs in self.declared_regions.values() for v in vs}
                if member.text in already or member.text in members:
                    raise ParseError(f"variable {member.text!r} in two regions",
                                     member.line, member.col)
                members.append(member.text)
                if self.peek().kind == ",":
                    self.advance()
                    continue
                break
            self.expect("}")
            self.expect(";")
            self.declared_regions[name.text] = tuple(members)

    def parse_thread(self, existing: list[str]) -> Thread:
        self.expect("thread")
        name = self.expect("ident")
        if name.text in existing:
            raise ParseError(f"duplicate thread name {name.text!r}", name.line, name.col)
        self.expect("{")
        body = self.parse_stmts()
        self.expect("}")
        return Thread(name=name.text, body=body)

    # statements

    def parse_stmts(self) -> tuple[Stmt, ...]:
        stmts: list[Stmt] = []
        while self.peek().kind not in ("}", "eof"):
            stmts.append(self.parse_stmt())
        return tuple(stmts)

    def parse_stmt(self) -> Stmt:
        tok = self.peek()
        if tok.kind == "ident":
            name = self.advance()
            if name.text not in self.variables:
                raise ParseError(f"undeclared variable {name.text!r}", name.line, name.col)
            self.expect(":=")
            e = self.parse_expr()
            self.expect(";")
            return Assign(name.text, e)
        if tok.kind == "assume":
            self.advance()
            self.expect("(")
            b = self.parse_bexpr()
            self.expect(")")
            self.expect(";")
            return Assume(b)
        if tok.kind in ("acquire", "release"):
            self.advance()
            self.expect("(")
            lk = self.expect("ident")
            if lk.text not in self.locks:
                raise ParseError(f"undeclared lock {lk.text!r}", lk.line, lk.col)
            self.expect(")")
            self.expect(";")
            return Acquire(lk.text) if tok.kind == "acquire" else Release(lk.text)
        if tok.kind == "assert":
            self.advance()
            self.expect("(")
            b = self.parse_bexpr()
            self.expect(")")
            self.expect(";")
            return AssertStmt(b)
        if tok.kind == "while":
            self.advance()
            self.expect("(")
            b = self.parse_bexpr()
            self.expect(")")
            self.expect("{")
            body = self.parse_stmts()
            self.expect("}")
            return WhileStmt(b, body)
        if tok.kind == "if":
            self.advance()
            self.expect("(")
            b = self.parse_bexpr()
            self.expect(")")
            self.expect("{")
            then_body = self.parse_stmts()
            self.expect("}")
            else_body: tuple[Stmt, ...] = ()
            if self.peek().kind == "else":
                self.advance()
                self.expect("{")
                else_body = self.parse_stmts()
                self.expect("}")
            return IfStmt(b, then_body, else_body)
        raise self.error(f"expected a statement, found {tok.text or 'end of input'!r}")

    # expressions

    def parse_expr(self) -> Expr:
        e = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            e = BinExpr(op, e, self.parse_term())
        return e

    def parse_term(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            # lookahead for constant multiplication `int * expr`
            if self.tokens[self.pos + 1].kind == "*":
                self.advance()
                self.advance()
                return ScaledExpr(int(tok.text), self.parse_term())
            self.advance()
            return IntLit(int(tok.text))
        if tok.kind == "ident":
            self.advance()
            if tok.text not in self.variables:
                raise ParseError(f"undeclared variable {tok.text!r}", tok.line, tok.col)
            return VarRef(tok.text)
        if tok.kind == "havoc":
            self.advance()
            return HavocExpr()
        if tok.kind == "(":
            self.advance()
            e = self.parse_expr()
            self.expect(")")
            return e
        raise self.error(f"expected an expression, found {tok.text or 'end of input'!r}")

    # boolean expressions; precedence: ! > cmp > && > ||

    def parse_bexpr(self) -> BoolExpr:
        b = self.parse_bconj()
        while self.peek().kind == "||":
            self.advance()
            b = BoolOp("||", b, self.parse_bconj())
        return b

    def parse_bconj(self) -> BoolExpr:
        b = self.parse_batom()
        while self.peek().kind == "&&":
            self.advance()
            b = BoolOp("&&", b, self.parse_batom())
        return b

    def parse_batom(self) -> BoolExpr:
        tok = self.peek()
        if tok.kind == "!":
            self.advance()
            return NotExpr(self.parse_batom())
        if tok.kind == "true":
            self.advance()
            return BoolLit(True)
        if tok.kind == "false":
            self.advance()
            return BoolLit(False)
        if tok.kind == "(":
            # either a parenthesized bexpr or the left expr of a comparison
            saved = self.pos
            try:
                self.advance()
                inner = self.parse_bexpr()
                self.expect(")")
                if self.peek().kind in CMP_FN:
                    raise self.error("comparison of boolean value")
                return inner
            except ParseError:
                self.pos = saved
        left = self.parse_expr()
        op = self.peek()
        if op.kind not in CMP_FN:
            raise self.error(f"expected a comparison operator, found {op.text!r}")
        self.advance()
        right = self.parse_expr()
        b = Cmp(op.kind, left, right)
        if havoc_slots(left) or havoc_slots(right):
            raise ParseError("havoc is not allowed in boolean conditions", op.line, op.col)
        return b


def parse_program(text: str) -> Program:
    """Parse source text; structured statements are kept in AST form."""
    return _Parser(text).parse_program()


def parse_region_text(text: str, variables: tuple[str, ...]) -> RegionMap:
    """Parse a standalone region file: one `region name { v1, v2 }` per line
    (the trailing semicolon of the in-program syntax is optional here)."""
    lines = []
    for line in text.splitlines():
        stripped = line.split("//")[0].rstrip()
        if stripped and not stripped.endswith(";"):
            stripped += ";"
        lines.append(stripped)
    parser = _Parser("\n".join(lines))
    parser.variables = list(variables)
    while parser.peek().kind == "region":
        parser.parse_decl()
    parser.expect("eof")
    return RegionMap.from_declared(variables, parser.declared_regions)


# ---------------------------------------------------------------------------
# Desugaring


class _Lowering:
    def __init__(self, program: Program):
        self.program = program
        self.next_loc = 1
        self.assertions: list[Assertion] = []

    def alloc(self) -> int:
        loc = self.next_loc
        self.next_loc += 1
        return loc

    def lower_thread(self, t: Thread) -> Thread:
        instrs: list[Instruction] = []
        entry = self.alloc()
        self.lower_block(t.name, t.body, entry, instrs)
        return Thread(name=t.name, body=t.body, entry=entry, instructions=tuple(instrs))

    def lower_block(self, tname, stmts, entry, out) -> int:
        cur = entry
        for s in stmts:
            cur = self.lower_stmt(tname, s, cur, out)
        return cur

    def lower_stmt(self, tname, s, cur, out) -> int:
        if isinstance(s, (Assign, Assume, Acquire, Release)):
            tgt = self.alloc()
            out.append(Instruction(cur, s, tgt))
            return tgt
        if isinstance(s, AssertStmt):
            tgt = self.alloc()
            out.append(Instruction(cur, Assume(BoolLit(True)), tgt,
                                   assert_reads=vars_of_bool(s.cond)))
            self.assertions.append(Assertion(cur, s.cond, tname))
            return tgt
        if isinstance(s, WhileStmt):
            head = cur
            body_entry = self.alloc()
            enter = Instruction(head, Assume(s.cond), body_entry)
            out.append(enter)
            body_exit = self.lower_block(tname, s.body, body_entry, out)
            out.append(Instruction(body_exit, Assume(BoolLit(True)), head))
            exit_loc = self.alloc()
            out.append(Instruction(head, Assume(negate_bool(s.cond)), exit_loc))
            return exit_loc
        if isinstance(s, IfStmt):
            if not s.else_body:
                then_entry = self.alloc()
                out.append(Instruction(cur, Assume(s.cond), then_entry))
                then_exit = self.lower_block(tname, s.then_body, then_entry, out)
                out.append(Instruction(cur, Assume(negate_bool(s.cond)), then_exit))
                return then_exit
            then_entry = self.alloc()
            out.append(Instruction(cur, Assume(s.cond), then_entry))
            then_exit = self.lower_block(tname, s.then_body, then_entry, out)
            else_entry = self.alloc()
            out.append(Instruction(cur, Assume(negate_bool(s.cond)), else_entry))
            else_exit = self.lower_block(tname, s.else_body, else_entry, out)
            join = self.alloc()
            out.append(Instruction(then_exit, Assume(BoolLit(True)), join))
            out.append(Instruction(else_exit, Assume(BoolLit(True)), join))
            return join
        raise TypeError(f"not a statement: {s!r}")


def desugar(p: Program) -> Program:
    """Lower structured control flow to Table-1 commands; idempotent."""
    if p.is_desugared:
        return p
    lowering = _Lowering(p)
    threads = tuple(lowering.lower_thread(t) for t in p.threads)
    return Program(
        variables=p.variables,
        locks=p.locks,
        regions=p.regions,
        threads=threads,
        assertions=tuple(lowering.assertions),
    )


# ---------------------------------------------------------------------------
# Canonical printer (round-trips through parse_program)


def _print_expr(e: Expr, parent: str = "") -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, HavocExpr):
        return "havoc"
    if isinstance(e, ScaledExpr):
        inner = _print_expr(e.expr, parent="*")
        return f"{e.coef} * {inner}"
    if isinstance(e, BinExpr):
        left = _print_expr(e.left)
        right = _print_expr(e.right)
        if isinstance(e.right, BinExpr):
            right = f"({right})"
        text = f"{left} {e.op} {right}"
        if parent == "*":
            return f"({text})"
        return text
    raise TypeError(f"not an expression: {e!r}")


def _print_bexpr(b: BoolExpr, parent_prec: int = 0) -> str:
    # precedences: || = 1, && = 2, ! = 3, atoms = 4
    if isinstance(b, BoolLit):
        return "true" if b.value else "false"
    if isinstance(b, Cmp):
        return f"{_print_expr(b.left)} {b.op} {_print_expr(b.right)}"
    if isinstance(b, NotExpr):
        return f"!{_print_bexpr(b.expr, 3)}"
    if isinstance(b, BoolOp):
        prec = 2 if b.op == "&&" else 1
        text = f"{_print_bexpr(b.left, prec)} {b.op} {_print_bexpr(b.right, prec + 1)}"
        if prec < parent_prec:
            return f"({text})"
        return text
    raise TypeError(f"not a boolean expression: {b!r}")


def _print_stmt(s: Stmt, indent: str) -> list[str]:
    if isinstance(s, (Assign, Assume, Acquire, Release)):
        return [f"{indent}{print_command(s)};"]
    if isinstance(s, AssertStmt):
        return [f"{indent}assert({_print_bexpr(s.cond)});"]
    if isinstance(s, WhileStmt):
        lines = [f"{indent}while ({_print_bexpr(s.cond)}) {{"]
        for inner in s.body:
            lines.extend(_print_stmt(inner, indent + "  "))
        lines.append(f"{indent}}}")
        return lines
    if isinstance(s, IfStmt):
        lines = [f"{indent}if ({_print_bexpr(s.cond)}) {{"]
        for inner in s.then_body:
            lines.extend(_print_stmt(inner, indent + "  "))
        if s.else_body:
            lines.append(f"{indent}}} else {{")
            for inner in s.else_body:
                lines.extend(_print_stmt(inner, indent + "  "))
        lines.append(f"{indent}}}")
        return lines
    raise TypeError(f"not a statement: {s!r}")


def print_bexpr(b: BoolExpr) -> str:
    return _print_bexpr(b)


def print_command(c: Command) -> str:
    if isinstance(c, Assign):
        return f"{c.var} := {_print_expr(c.expr)}"
    if isinstance(c, Assume):
        return f"assume({_print_bexpr(c.cond)})"
    if isinstance(c, Acquire):
        return f"acquire({c.lock})"
    return f"release({c.lock})"


def program_to_source(p: Program) -> str:
    """Render a (structured) program back to canonical source text."""
    lines = []
    if p.variables:
        lines.append("var " + ", ".join(p.variables) + ";")
    if p.locks:
        lines.append("lock " + ", ".join(p.locks) + ";")
    for name in p.regions.declared:
        members = p.regions.region_vars(name)
        lines.append(f"region {name} {{ " + ", ".join(members) + " };")
    for t in p.threads:
        lines.append("")
        lines.append(f"thread {t.name} {{")
        for s in t.body:
            lines.extend(_print_stmt(s, "  "))
        lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Diagnostic:
    message: str
    location: Optional[int] = None


def validate_program(p: Program) -> list[Diagnostic]:
    """Check Program invariants on a desugared program; one diagnostic each."""
    out: list[Diagnostic] = []
    if not p.is_desugared:
        return [Diagnostic("program is not desugared")]

    seen: dict[int, str] = {}
    for t in p.threads:
        for loc in t.locations:
            if loc in seen and seen[loc] != t.name:
                out.append(Diagnostic(f"location {loc} appears in threads "
                                      f"{seen[loc]!r} and {t.name!r}", loc))
            seen[loc] = t.name

    by_source: dict[int, list[Instruction]] = {}
    by_target: dict[int, list[Instruction]] = {}
    for i in p.instructions:
        by_source.setdefault(i.source, []).append(i)
        by_target.setdefault(i.target, []).append(i)
    for i in p.instructions:
        if isinstance(i.command, (Acquire, Release)):
            kind = "acquire" if isinstance(i.command, Acquire) else "release"
            if len(by_source[i.source]) > 1:
                out.append(Diagnostic(
                    f"{kind} at {i.source} shares its source location", i.source))
            if len(by_target[i.target]) > 1:
                out.append(Diagnostic(
                    f"{kind} into {i.target} shares its target location", i.target))

    declared_vars = set(p.variables)
    declared_locks = set(p.locks)
    for t in p.threads:
        for i in t.instructions:
            reads, writes = instr_accesses(i)
            for v in reads | writes:
                if v not in declared_vars:
                    out.append(Diagnostic(f"undeclared variable {v!r}", i.source))
            if isinstance(i.command, (Acquire, Release)):
                if i.command.lock not in declared_locks:
                    out.append(Diagnostic(f"undeclared lock {i.command.lock!r}", i.source))
            if i.source not in t.locations or i.target not in t.locations:
                out.append(Diagnostic("instruction endpoints leave the thread", i.source))

    partition: dict[str, str] = {}
    for name, vs in p.regions.members:
        for v in vs:
            if v in partition:
                out.append(Diagnostic(f"variable {v!r} in regions "
                                      f"{partition[v]!r} and {name!r}"))
            partition[v] = name
            if v not in declared_vars:
                out.append(Diagnostic(f"region {name!r} mentions undeclared {v!r}"))
    for v in p.variables:
        if v not in partition:
            out.append(Diagnostic(f"variable {v!r} not covered by the region partition"))

    return out
