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
from typing import Mapping, NamedTuple, Optional, Union


# ---------------------------------------------------------------------------
# Expressions

HAVOC = None  # the atom of a havoc occurrence: a nondeterministic integer


class Linear(NamedTuple):
    """An expression as `const + sum(coeffs[v] * v) + sum(havocs[k] * c_k)`,
    where `c_k` is the value chosen for the k-th havoc occurrence."""

    const: int
    coeffs: dict[str, int]  # the nonzero coefficients, in order of first mention
    havocs: tuple[int, ...]  # one coefficient per havoc occurrence, left to right
    reads: frozenset[str]  # every variable mentioned: `y - y` still reads y


@dataclass(frozen=True)
class Expr:
    """An n-ary sum `t1 +- t2 +- ...`, the only integer expression.

    Each term is `(sign, factors, atom)`: `sign` is +1 or -1 (+1 for the
    first term), `factors` the constants of the term's `k *` prefixes, and
    `atom` an int literal, a variable name, `HAVOC` or a parenthesised `Expr`
    of at least two terms.  The parser splices a leading parenthesised sum
    into its parent and unwraps a group of one term, so the canonical
    printer's output parses back to an equal `Expr`."""

    terms: tuple[tuple[int, tuple[int, ...], object], ...]

    @staticmethod
    def of(atom) -> "Expr":
        """The expression of one atom: a literal, a variable name or HAVOC."""
        return Expr(((1, (), atom),))

    @cached_property
    def linear(self) -> Linear:
        """The linear view, computed in one pass over the terms, groups
        included, left to right."""
        coeffs: dict[str, int] = {}
        havocs: list[int] = []
        const = _collect(self, 1, coeffs, havocs)
        return Linear(const, {v: k for v, k in coeffs.items() if k}, tuple(havocs),
                      frozenset(coeffs))


def _collect(e: Expr, k: int, coeffs: dict[str, int], havocs: list[int]) -> int:
    """Add the variable and havoc coefficients of `k * e` to `coeffs` and
    `havocs`; return its constant."""
    const = 0
    for sign, factors, atom in e.terms:
        c = sign * k
        for f in factors:
            c *= f
        if type(atom) is str:
            coeffs[atom] = coeffs.get(atom, 0) + c
        elif atom is HAVOC:
            havocs.append(c)
        elif type(atom) is Expr:
            const += _collect(atom, c, coeffs, havocs)
        else:
            const += c * atom
    return const


@dataclass(frozen=True)
class LinearAtom:
    """`sum(coeffs[v] * v) <= bound`, with the nonzero coefficients only."""

    coeffs: dict[str, int]
    bound: int

    def negated(self) -> "LinearAtom":
        """`not (s <= b)`, which over the integers is `-s <= -b - 1`."""
        return LinearAtom({v: -k for v, k in self.coeffs.items()}, -self.bound - 1)


Guard = Union[LinearAtom, tuple]  # atom | ('and'|'or', tuple[Guard, ...]) | ('bool', bool)


def _negate(g: Guard) -> Guard:
    if type(g) is LinearAtom:
        return g.negated()
    tag, arg = g
    if tag == "bool":
        return ("bool", not arg)
    return ("or" if tag == "and" else "and", tuple(map(_negate, arg)))


class Cond:
    """The base of the condition classes."""

    @cached_property
    def guard(self) -> Guard:
        """The condition in negation-normal form over linear atoms, built
        once per condition object: the view the numerical domains and the
        step compiler read."""
        return self._guard()


@dataclass(frozen=True)
class BoolLit(Cond):
    value: bool

    def _guard(self) -> Guard:
        return ("bool", self.value)


@dataclass(frozen=True)
class Cmp(Cond):
    op: str  # ==, !=, <, <=, >, >=
    left: Expr
    right: Expr

    def _guard(self) -> Guard:
        left, right = self.left.linear, self.right.linear
        if left.havocs or right.havocs:
            raise ValueError("havoc is not allowed in conditions")
        coeffs = dict(left.coeffs)
        for v, k in right.coeffs.items():
            coeffs[v] = coeffs.get(v, 0) - k
        coeffs = {v: k for v, k in coeffs.items() if k}
        bound = right.const - left.const  # sum(coeffs[v] * v) <= bound  is  left <= right
        if not coeffs:
            return ("bool", CMP_FN[self.op](0, bound))
        le, lt = LinearAtom(coeffs, bound), LinearAtom(coeffs, bound - 1)
        ge, gt = lt.negated(), le.negated()
        # `!=` is the negation of `==`, atom by atom
        return {"<=": le, "<": lt, ">=": ge, ">": gt,
                "==": ("and", (le, ge)), "!=": ("or", (gt, lt))}[self.op]


@dataclass(frozen=True)
class BoolOp(Cond):
    """`args[0] op args[1] op ...`; like sums, a leading parenthesised chain
    of the same operator is spliced in."""

    op: str  # '&&' or '||'
    args: tuple["BoolExpr", ...]

    def _guard(self) -> Guard:
        return ("and" if self.op == "&&" else "or", tuple(a.guard for a in self.args))


@dataclass(frozen=True)
class NotExpr(Cond):
    expr: "BoolExpr"

    def _guard(self) -> Guard:
        # a run of `!`, up to MAX_NESTING long, is counted, not recursed through
        inner, negate = self.expr, True
        while type(inner) is NotExpr:
            inner, negate = inner.expr, not negate
        return _negate(inner.guard) if negate else inner.guard


BoolExpr = Union[BoolLit, Cmp, BoolOp, NotExpr]


def vars_of_bool(b: BoolExpr) -> frozenset[str]:
    if isinstance(b, Cmp):
        return b.left.linear.reads | b.right.linear.reads
    if isinstance(b, BoolOp):
        return frozenset().union(*map(vars_of_bool, b.args))
    if isinstance(b, NotExpr):
        return vars_of_bool(b.expr)
    return frozenset()


# The evaluators walk the terms and conditions themselves rather than
# `Expr.linear` and `Cond.guard`: they are the reference semantics (metacheck,
# the envset domain, the benchmark's oracle and the tests' reference steps)
# that the compiled steps and the numerical domains, which read the two
# views, are checked against.


def eval_expr(e: Expr, env: Mapping[str, int], choices: tuple[int, ...] = ()) -> int:
    """Evaluate `e` under `env`; havoc occurrences consume `choices` left to right."""
    if not choices:
        return _sum_value(e, env, None)
    pending = list(reversed(choices))
    value = _sum_value(e, env, pending)
    if pending:
        raise ValueError("unused havoc choices")
    return value


def _sum_value(e: Expr, env, pending: Optional[list]) -> int:
    """The value of `e`; `pending` holds the unused choices, last first
    (None for none)."""
    terms = e.terms
    if len(terms) == 1:
        sign, factors, atom = terms[0]
        if not factors and type(atom) is not Expr and atom is not HAVOC:
            return sign * (env[atom] if type(atom) is str else atom)
    total = 0
    for sign, factors, atom in terms:
        if type(atom) is Expr:
            value = _sum_value(atom, env, pending)
        elif atom is HAVOC:
            if not pending:
                raise ValueError("havoc occurrence without a chosen value")
            value = pending.pop()
        elif type(atom) is str:
            value = env[atom]
        else:
            value = atom
        for k in factors:
            value *= k
        total += sign * value
    return total


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
        decides = b.op == "||"  # the value of an operand that decides the chain
        for a in b.args:
            if eval_bool(a, env) is decides:
                return decides
        return not decides
    if isinstance(b, NotExpr):
        return not eval_bool(b.expr, env)
    raise TypeError(f"not a boolean expression: {b!r}")


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
        return BoolOp(op, tuple(map(negate_bool, b.args)))
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
        return c.expr.linear.reads, frozenset({c.var})
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

    def thread_index(self, name: str) -> int:
        for i, t in enumerate(self.threads):
            if t.name == name:
                return i
        raise KeyError(name)

    # Every release of a lock feeds every acquire of it.  The sync-CFG, the
    # thread-local buffers and metacheck read these tables, built on first use.
    @cached_property
    def release_points(self) -> dict[str, tuple[int, ...]]:
        """Per lock, its post-release points (release targets), ascending."""
        return self._lock_points(Release, "target")

    @cached_property
    def acquire_points(self) -> dict[str, tuple[int, ...]]:
        """Per lock, its pre-acquire points (acquire sources), ascending."""
        return self._lock_points(Acquire, "source")

    def _lock_points(self, kind: type, end: str) -> dict[str, tuple[int, ...]]:
        points: dict[str, list[int]] = {m: [] for m in self.locks}
        for i in self.instructions:
            if isinstance(i.command, kind):
                points[i.command.lock].append(getattr(i, end))
        return {m: tuple(sorted(locs)) for m, locs in points.items()}

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


class _TooDeep(ParseError):
    """Nesting past MAX_NESTING: final, never backtracked over."""


# Levels of `(`, `{` and `!` around any token, the thread body's braces and
# the parentheses of `assume(...)` included.  Sums and `&&`/`||` chains are
# flat, so nesting is all the front end and the walkers of expressions and
# statements recurse on.  An `&&` chain inside an `||` chain is one more tree
# level that no parenthesis marks; it counts as a level too, which keeps the
# compiled step's alternating `and`/`or` to about 100 parentheses (Python
# 3.11's parser fails, with MemoryError, from 185 on).
MAX_NESTING = 200


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
        self.depth = 0
        self.peak = 0  # the deepest opener since parse_bexpr last reset it

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

    def open(self, kind: str) -> None:
        """Consume `(`, `{` or `!`, one nesting level deeper."""
        tok = self.expect(kind)
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise _TooDeep(f"nesting deeper than {MAX_NESTING} levels", tok.line, tok.col)
        self.peak = max(self.peak, self.depth)

    def close(self, kind: str) -> None:
        self.expect(kind)
        self.depth -= 1

    def literal(self) -> int:
        tok = self.expect("num")
        try:
            return int(tok.text)
        except ValueError:  # past the interpreter's limit on int/str digits
            raise ParseError(f"integer literal of {len(tok.text)} digits is too long",
                             tok.line, tok.col) from None

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
                if kw.kind == "var" and name.text in self.declared_regions:
                    raise _outside_region(name)
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
            if name.text in self.variables and name.text not in members:
                raise _outside_region(name)
            self.declared_regions[name.text] = tuple(members)

    def parse_thread(self, existing: list[str]) -> Thread:
        self.expect("thread")
        name = self.expect("ident")
        if name.text in existing:
            raise ParseError(f"duplicate thread name {name.text!r}", name.line, name.col)
        return Thread(name=name.text, body=self.parse_block())

    # statements

    def parse_block(self) -> tuple[Stmt, ...]:
        self.open("{")
        stmts: list[Stmt] = []
        while self.peek().kind not in ("}", "eof"):
            stmts.append(self.parse_stmt())
        self.close("}")
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
        if tok.kind in ("acquire", "release"):
            self.advance()
            self.open("(")
            lk = self.expect("ident")
            if lk.text not in self.locks:
                raise ParseError(f"undeclared lock {lk.text!r}", lk.line, lk.col)
            self.close(")")
            self.expect(";")
            return Acquire(lk.text) if tok.kind == "acquire" else Release(lk.text)
        if tok.kind not in ("assume", "assert", "while", "if"):
            raise self.error(f"expected a statement, found {tok.text or 'end of input'!r}")
        self.advance()
        self.open("(")
        b = self.parse_bexpr()
        self.close(")")
        if tok.kind == "assume":
            self.expect(";")
            return Assume(b)
        if tok.kind == "assert":
            self.expect(";")
            return AssertStmt(b)
        body = self.parse_block()
        if tok.kind == "while":
            return WhileStmt(b, body)
        else_body: tuple[Stmt, ...] = ()
        if self.peek().kind == "else":
            self.advance()
            else_body = self.parse_block()
        return IfStmt(b, body, else_body)

    # expressions

    def parse_expr(self) -> Expr:
        terms: list = []
        sign = 1
        while True:
            self.parse_term(sign, terms)
            if self.peek().kind not in ("+", "-"):
                return Expr(tuple(terms))
            sign = 1 if self.advance().kind == "+" else -1

    def parse_term(self, sign: int, terms: list) -> None:
        """Append the term `k1 * ... * kn * atom` to `terms`.  A group of one
        term adds its factors to the term's; a leading group with no factors
        is spliced into `terms`."""
        factors = []
        while self.peek().kind == "num" and self.tokens[self.pos + 1].kind == "*":
            factors.append(self.literal())
            self.advance()
        tok = self.peek()
        if tok.kind == "num":
            atom = self.literal()
        elif tok.kind == "ident":
            self.advance()
            if tok.text not in self.variables:
                raise ParseError(f"undeclared variable {tok.text!r}", tok.line, tok.col)
            atom = tok.text
        elif tok.kind == "havoc":
            self.advance()
            atom = HAVOC
        elif tok.kind == "(":
            self.open("(")
            group = self.parse_expr()
            self.close(")")
            if len(group.terms) == 1:
                _, inner, atom = group.terms[0]
                factors.extend(inner)
            elif not terms and not factors:
                terms.extend(group.terms)
                return
            else:
                atom = group
        else:
            raise self.error(f"expected an expression, found {tok.text or 'end of input'!r}")
        terms.append((sign, tuple(factors), atom))

    # boolean expressions; precedence: ! > cmp > && > ||

    def parse_bexpr(self) -> BoolExpr:
        """An `&&` chain inside an `||` chain is a tree level that no
        parenthesis marks, so the openers inside it count one level deeper.
        Both chains are known only once parsed: a chain whose openers reach
        MAX_NESTING is parsed again one level deeper, to fail at the opener
        past it."""
        outer, parts = self.peak, []
        while True:
            start, self.peak = self.pos, 0
            parts.append((start, self.parse_conjuncts(), self.peak))
            if self.peek().kind != "||":
                break
            self.advance()
        peaks = [outer]
        for start, conjuncts, peak in parts:
            if len(conjuncts) > 1 and len(parts) > 1:
                if peak == MAX_NESTING:
                    self.pos, self.depth = start, self.depth + 1
                    self.parse_conjuncts()  # raises _TooDeep
                peak += 1
            peaks.append(peak)
        self.peak = max(peaks)
        return _chain("||", [_chain("&&", conjuncts) for _, conjuncts, _ in parts])

    def parse_conjuncts(self) -> list:
        conjuncts = [self.parse_batom()]
        while self.peek().kind == "&&":
            self.advance()
            conjuncts.append(self.parse_batom())
        return conjuncts

    def parse_batom(self) -> BoolExpr:
        tok = self.peek()
        if tok.kind == "!":
            self.open("!")
            b = NotExpr(self.parse_batom())
            self.depth -= 1
            return b
        if tok.kind == "true":
            self.advance()
            return BoolLit(True)
        if tok.kind == "false":
            self.advance()
            return BoolLit(False)
        if tok.kind == "(":
            # either a parenthesized bexpr or the left expr of a comparison
            saved = self.pos, self.depth, self.peak
            try:
                self.open("(")
                inner = self.parse_bexpr()
                self.close(")")
                if self.peek().kind in CMP_FN:
                    raise self.error("comparison of boolean value")
                return inner
            except _TooDeep:
                raise
            except ParseError:
                self.pos, self.depth, self.peak = saved
        left = self.parse_expr()
        op = self.peek()
        if op.kind not in CMP_FN:
            raise self.error(f"expected a comparison operator, found {op.text!r}")
        self.advance()
        right = self.parse_expr()
        if left.linear.havocs or right.linear.havocs:
            raise ParseError("havoc is not allowed in boolean conditions", op.line, op.col)
        return Cmp(op.kind, left, right)


def _outside_region(name: Token) -> ParseError:
    # the variable's own region, when undeclared, would take the same name
    return ParseError(f"region {name.text!r} is named after a variable outside it",
                      name.line, name.col)


def _chain(op: str, args: list) -> BoolExpr:
    """`args` joined by `op`; a leading parenthesised chain of `op` is
    spliced in, the way the printer prints it."""
    if len(args) == 1:
        return args[0]
    if isinstance(args[0], BoolOp) and args[0].op == op:
        args[:1] = args[0].args
    return BoolOp(op, tuple(args))


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


def _print_expr(e: Expr) -> str:
    parts = []
    for sign, factors, atom in e.terms:
        if type(atom) is Expr:
            text = f"({_print_expr(atom)})"
        else:
            text = "havoc" if atom is HAVOC else str(atom)
        text = "".join(f"{k} * " for k in factors) + text
        parts.append(text if not parts else f"{'+' if sign > 0 else '-'} {text}")
    return " ".join(parts)


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
        first, *rest = b.args
        text = f" {b.op} ".join([_print_bexpr(first, prec)]
                                + [_print_bexpr(a, prec + 1) for a in rest])
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
