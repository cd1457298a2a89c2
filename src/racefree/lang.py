"""Concurrent toy language: expressions, commands, and a parser that lowers
source text to assume/goto form in one pass.

A program is a set of shared integer variables, locks, an optional region
partition of the variables, and a fixed list of threads.  Each thread is a
control-flow graph whose edges carry exactly four kinds of commands:
assignment, assume, acquire, release.  The parser emits the edges as it
reads each statement: structured `while`/`if` statements become
assume-guarded branch edges and `assert` becomes a no-op edge registered in
the program's assertion table.
"""

from __future__ import annotations

import re
from collections import _tuplegetter
from functools import cached_property
from typing import Mapping, NamedTuple, Optional, Union


# ---------------------------------------------------------------------------
# The value base of the AST and program classes


class _Value(tuple):
    """An immutable record: a tuple of its class's own annotated fields, in
    order, each read by name.  A field with a class attribute of the same
    name defaults to it.

    Unlike a NamedTuple, a record equals only records of its own class, so
    `Acquire("m") != Release("m")`, and never a plain tuple; its hash is the
    hash of the tuple of its fields.  Attributes cannot be assigned, but the
    instance dictionary holds the views a `cached_property` computes once per
    object; neither equality, hashing nor `_replace` reads those.  Nothing is
    generated or compiled per class, so a class costs no more than its class
    statement; construction is one `tuple.__new__` call, and field reads and
    hashing run in C."""

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        if not fields:  # a base such as `Cond`: no fields of its own
            return
        cls._fields = fields
        cls._defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        for i, f in enumerate(fields):
            # the read-only item getter of `collections.namedtuple`
            setattr(cls, f, _tuplegetter(i, None))

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            args = cls._bind(args, kwargs)
        return tuple.__new__(cls, args)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call with keywords, defaults or a wrong count."""
        fields, name = cls._fields, cls.__name__
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} arguments, {len(args)} given")
        values = list(args)
        for f in fields[len(args):]:
            if f in kwargs:
                values.append(kwargs.pop(f))
            elif f in cls._defaults:
                values.append(cls._defaults[f])
            else:
                raise TypeError(f"{name} missing argument {f!r}")
        if kwargs:
            raise TypeError(f"{name} got an unexpected or repeated argument "
                            f"{next(iter(kwargs))!r}")
        return values

    # tuple's own `__ne__` would compare across classes, so both are defined
    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return other.__class__ is not self.__class__ or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    def __getnewargs__(self) -> tuple:
        """The fields, for `copy` and `pickle` to call the class with."""
        return tuple(self)

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self))
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r} of an immutable "
                             f"{self.__class__.__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r} of an immutable "
                             f"{self.__class__.__name__}")

    def _replace(self, **changes):
        """A copy with the fields in `changes` replaced; no cached view is
        carried over."""
        values = [changes.pop(f, v) for f, v in zip(self._fields, self)]
        if changes:
            raise TypeError(f"{self.__class__.__name__} has no field "
                            f"{next(iter(changes))!r}")
        return self.__class__(*values)


# ---------------------------------------------------------------------------
# Expressions

HAVOC = None  # the atom of a havoc occurrence: a nondeterministic integer
# the finite pool a havoc draws from in the bounded explorers and the
# environment-set domain (`--havoc-set`)
DEFAULT_HAVOC = (0, 1, 2)


class Linear(NamedTuple):
    """An expression as `const + sum(coeffs[v] * v) + sum(havocs[k] * c_k)`,
    where `c_k` is the value chosen for the k-th havoc occurrence."""

    const: int
    coeffs: dict[str, int]  # the nonzero coefficients, in order of first mention
    havocs: tuple[int, ...]  # one coefficient per havoc occurrence, left to right
    reads: frozenset[str]  # every variable mentioned: `y - y` still reads y


class Expr(_Value):
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


class LinearAtom(_Value):
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


class Cond(_Value):
    """The base of the condition classes."""

    @cached_property
    def guard(self) -> Guard:
        """The condition in negation-normal form over linear atoms, built
        once per condition object: the view the numerical domains and the
        step compiler read."""
        return self._guard()


class BoolLit(Cond):
    value: bool

    def _guard(self) -> Guard:
        return ("bool", self.value)


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


class BoolOp(Cond):
    """`args[0] op args[1] op ...`; like sums, a leading parenthesised chain
    of the same operator is spliced in."""

    op: str  # '&&' or '||'
    args: tuple["BoolExpr", ...]

    def _guard(self) -> Guard:
        return ("and" if self.op == "&&" else "or", tuple(a.guard for a in self.args))


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
# Commands: the edge labels of the CFG


class Assign(_Value):
    var: str
    expr: Expr


class Assume(_Value):
    cond: BoolExpr


class Acquire(_Value):
    lock: str


class Release(_Value):
    lock: str


Command = Union[Assign, Assume, Acquire, Release]


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
# The CFG program model


class Instruction(_Value):
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


class Thread(_Value):
    name: str
    entry: int
    instructions: tuple[Instruction, ...]

    @cached_property
    def locations(self) -> frozenset[int]:
        locs = {self.entry}
        for i in self.instructions:
            locs.add(i.source)
            locs.add(i.target)
        return frozenset(locs)


class RegionMap(_Value):
    """Partition of the program variables into named regions."""

    members: tuple[tuple[str, tuple[str, ...]], ...]

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
        return RegionMap(tuple(members))

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


class Assertion(_Value):
    location: int
    cond: BoolExpr
    thread: str


class Program(_Value):
    variables: tuple[str, ...]
    locks: tuple[str, ...]
    regions: RegionMap
    threads: tuple[Thread, ...]
    assertions: tuple[Assertion, ...] = ()

    # The instruction, edge and thread tables, built on first use: the
    # validator, the concrete index and the fixpoint engine read the same
    # ones.  None reads the regions (see `with_regions`).
    @cached_property
    def instructions(self) -> tuple[Instruction, ...]:
        """Every instruction, thread by thread in instruction order."""
        return tuple(i for t in self.threads for i in t.instructions)

    @cached_property
    def thread_of(self) -> dict[int, int]:
        """Each location's thread index.  The edge tables rely on every
        location belonging to one thread: a location in two raises
        ValueError here (`validate_program` reports it as a diagnostic)."""
        out: dict[int, int] = {}
        for tid, t in enumerate(self.threads):
            for loc in t.locations:
                if out.setdefault(loc, tid) != tid:
                    raise ValueError(f"location {loc} is in two threads")
        return out

    @cached_property
    def by_source(self) -> dict[int, tuple[Instruction, ...]]:
        """Each location's outgoing instructions, in `instructions` order."""
        return self._edges("source")

    @cached_property
    def by_target(self) -> dict[int, tuple[Instruction, ...]]:
        """Each location's incoming instructions, in `instructions` order."""
        return self._edges("target")

    def _edges(self, end: str) -> dict[int, tuple[Instruction, ...]]:
        edges: dict[int, list[Instruction]] = {}
        for i in self.instructions:
            edges.setdefault(getattr(i, end), []).append(i)
        return {loc: tuple(instrs) for loc, instrs in edges.items()}

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
        """The program over `regions`, with the tables it has built: itself
        when they equal its own, else a copy that keeps them, since no
        table reads the regions."""
        if regions == self.regions:
            return self
        out = self._replace(regions=regions)
        vars(out).update(vars(self))
        return out


# ---------------------------------------------------------------------------
# Lexer


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class _Fail(Exception):
    """A parse error at token `at`.  The parser raises it and may backtrack
    over it; only one that escapes is located, as a ParseError."""

    def __init__(self, message: str, at: int):
        super().__init__(message)
        self.message = message
        self.at = at


class _TooDeep(_Fail):
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

_OPERATORS = (":=", "==", "!=", "<=", ">=", "&&", "||", *"-+*<>!(){};,")

# One match per token: the blanks and comments before it, then the token
# itself (group 1), which is a literal, a name, an operator, one unexpected
# character or, at the end of the input, the empty string.  After the longest
# run of blanks and comments one of these always matches, so a scan skips no
# text and never backtracks into a comment to read tokens from it.
_TOKEN_RE = re.compile(
    r"""
    (?:\s|//[^\n]*)*
    ( [0-9]+
    | [A-Za-z_][A-Za-z_0-9]*
    | :=|==|!=|<=|>=|&&|\|\||[-+*<>!(){};,]
    | \S
    | \Z
    )
    """,
    re.VERBOSE,
)

# A keyword or an operator is its own kind, the end of input is 'eof', and
# any other token is told by its first character; one that is none of these
# is an unexpected character.
_KINDS = {**{k: k for k in (*_KEYWORDS, *_OPERATORS)}, "": "eof"}
_KIND_BY_FIRST = {**dict.fromkeys("0123456789", "num"),
                  **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz", "ident")}


def _tokenize(text: str) -> tuple[list[str], list[str]]:
    """The kind and the text of each token, the last one the end of input
    (kind 'eof', text '').  Positions are not computed: an error finds its
    token's offset with `_token_offsets`."""
    texts = _TOKEN_RE.findall(text)
    if len(texts) > 1 and not texts[-2]:  # blanks at the end: the end matched twice
        texts.pop()
    kind, kind_by_first = _KINDS.get, _KIND_BY_FIRST.get
    kinds = [kind(t) or kind_by_first(t[0]) for t in texts]
    if None in kinds:
        at = kinds.index(None)
        raise ParseError(f"unexpected character {texts[at]!r}",
                         *_position(text, _token_offsets(text)[at]))
    return kinds, texts


def _token_offsets(text: str) -> list[int]:
    """The offset of each token of `_tokenize(text)`, from the same scan."""
    return [m.start(1) for m in _TOKEN_RE.finditer(text)]


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of `offset`.  A column counts characters
    from the last newline, so a tab or a carriage return is one column."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    """A recursive-descent parser over the parallel lists `kinds` and
    `texts`, at token `pos`.  The hot paths read the kinds in place.

    Statements are lowered as they are read: each one allocates its
    locations, in source order from 1 up, appends its instructions to `out`
    (the current thread's) and an `assert` adds to `assertions`."""

    def __init__(self, text: str):
        self.text = text
        self.kinds, self.texts = _tokenize(text)
        self.pos = 0
        # declared names, in order; dicts for membership tests in O(1)
        self.variables: dict[str, None] = {}
        self.locks: dict[str, None] = {}
        self.declared_regions: dict[str, tuple[str, ...]] = {}
        self.in_regions: set[str] = set()
        self.depth = 0
        self.peak = 0  # the deepest opener since parse_bexpr last reset it
        self.next_loc = 1
        self.thread = ""  # the name of the thread being read
        self.out: list[Instruction] = []
        self.assertions: list[Assertion] = []

    def located(self, e: _Fail) -> ParseError:
        """`e` as a ParseError, at its token's line and column."""
        offset = _token_offsets(self.text)[e.at]
        return ParseError(e.message, *_position(self.text, offset))

    # token helpers

    def found(self, at: int) -> str:
        return repr(self.texts[at] or "end of input")

    def expected(self, kind: str, at: int) -> _Fail:
        return _Fail(f"expected {kind!r}, found {self.found(at)}", at)

    def expect(self, kind: str) -> str:
        """Consume a token of `kind`; return its text."""
        pos = self.pos
        if self.kinds[pos] != kind:
            raise self.expected(kind, pos)
        self.pos = pos + 1
        return self.texts[pos]

    def open(self, kind: str) -> None:
        """Consume `(`, `{` or `!`, one nesting level deeper."""
        at = self.pos
        self.expect(kind)
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise _TooDeep(f"nesting deeper than {MAX_NESTING} levels", at)
        if self.depth > self.peak:
            self.peak = self.depth

    def close(self, kind: str) -> None:
        self.expect(kind)
        self.depth -= 1

    def literal(self, at: int) -> int:
        """The value of the literal at token `at`."""
        text = self.texts[at]
        try:
            return int(text)
        except ValueError:  # past the interpreter's limit on int/str digits
            raise _Fail(f"integer literal of {len(text)} digits is too long", at) from None

    # declarations

    def parse_program(self) -> Program:
        kinds = self.kinds
        while kinds[self.pos] in ("var", "lock", "region"):
            self.parse_decl()
        if kinds[self.pos] != "thread":
            raise _Fail("expected at least one thread definition", self.pos)
        threads: dict[str, Thread] = {}
        while kinds[self.pos] == "thread":
            thread = self.parse_thread(threads)
            threads[thread.name] = thread
        self.expect("eof")
        variables = tuple(self.variables)
        return Program(
            variables=variables,
            locks=tuple(self.locks),
            regions=RegionMap.from_declared(variables, self.declared_regions),
            threads=tuple(threads.values()),
            assertions=tuple(self.assertions),
        )

    def parse_decl(self) -> None:
        keyword = self.kinds[self.pos]
        self.pos += 1
        if keyword in ("var", "lock"):
            target = self.variables if keyword == "var" else self.locks
            while True:
                at = self.pos
                name = self.expect("ident")
                if name in self.variables or name in self.locks:
                    raise _Fail(f"duplicate declaration of {name!r}", at)
                if keyword == "var" and name in self.declared_regions:
                    raise _outside_region(name, at)
                target[name] = None
                if self.kinds[self.pos] != ",":
                    break
                self.pos += 1
            self.expect(";")
        else:  # region
            at = self.pos
            name = self.expect("ident")
            if name in self.declared_regions:
                raise _Fail(f"duplicate region {name!r}", at)
            self.expect("{")
            members: dict[str, None] = {}
            while True:
                member_at = self.pos
                member = self.expect("ident")
                if member not in self.variables:
                    raise _Fail(f"undeclared variable {member!r} in region", member_at)
                if member in self.in_regions or member in members:
                    raise _Fail(f"variable {member!r} in two regions", member_at)
                members[member] = None
                if self.kinds[self.pos] != ",":
                    break
                self.pos += 1
            self.expect("}")
            self.expect(";")
            if name in self.variables and name not in members:
                raise _outside_region(name, at)
            self.declared_regions[name] = tuple(members)
            self.in_regions.update(members)

    def parse_regions(self) -> dict[str, tuple[str, ...]]:
        """A region file: region declarations up to the end of input."""
        while self.kinds[self.pos] == "region":
            self.parse_decl()
        self.expect("eof")
        return self.declared_regions

    def parse_thread(self, existing) -> Thread:
        self.expect("thread")
        at = self.pos
        name = self.expect("ident")
        if name in existing:
            raise _Fail(f"duplicate thread name {name!r}", at)
        self.thread, self.out = name, []
        entry = self.alloc()
        self.parse_block(entry)
        return Thread(name, entry, tuple(self.out))

    # statements, lowered to instructions

    def alloc(self) -> int:
        loc = self.next_loc
        self.next_loc = loc + 1
        return loc

    def emit(self, source: int, command: Command,
             assert_reads: frozenset[str] = frozenset()) -> int:
        """Append an edge from `source` to a fresh location; return that."""
        target = self.alloc()
        self.out.append(Instruction(source, command, target, assert_reads))
        return target

    def settled(self, loc: int) -> int:
        """`loc`, or one `assume(true)` past it when an acquire or release
        just entered it: the caller adds a second edge into the result."""
        out = self.out
        if out and out[-1].target == loc and type(out[-1].command) in (Acquire, Release):
            return self.emit(loc, Assume(BoolLit(True)))
        return loc

    def parse_block(self, cur: int) -> int:
        """Read `{ stmt* }` from location `cur`; return its exit location."""
        self.open("{")
        kinds = self.kinds
        while kinds[self.pos] != "}" and kinds[self.pos] != "eof":
            cur = self.parse_stmt(cur)
        self.close("}")
        return cur

    def parse_stmt(self, cur: int) -> int:
        """Read one statement from location `cur`; return its exit location."""
        # a token past one that is not 'eof' exists, since 'eof' is the last
        kinds, texts, pos = self.kinds, self.texts, self.pos
        kind = kinds[pos]
        if kind == "ident":
            var = texts[pos]
            if var not in self.variables:
                raise _Fail(f"undeclared variable {var!r}", pos)
            if kinds[pos + 1] != ":=":
                raise self.expected(":=", pos + 1)
            self.pos = pos + 2
            e = self.parse_expr()
            pos = self.pos
            if kinds[pos] != ";":
                raise self.expected(";", pos)
            self.pos = pos + 1
            return self.emit(cur, Assign(var, e))
        if kind == "acquire" or kind == "release":
            self.pos = pos + 1
            self.open("(")
            lock = texts[pos + 2]
            if kinds[pos + 2] != "ident":
                raise self.expected("ident", pos + 2)
            if lock not in self.locks:
                raise _Fail(f"undeclared lock {lock!r}", pos + 2)
            if kinds[pos + 3] != ")":
                raise self.expected(")", pos + 3)
            if kinds[pos + 4] != ";":
                raise self.expected(";", pos + 4)
            self.depth -= 1
            self.pos = pos + 5
            return self.emit(cur, Acquire(lock) if kind == "acquire" else Release(lock))
        if kind not in ("assume", "assert", "while", "if"):
            raise _Fail(f"expected a statement, found {self.found(pos)}", pos)
        self.pos = pos + 1
        self.open("(")
        b = self.parse_bexpr()
        self.close(")")
        if kind == "assume":
            self.expect(";")
            return self.emit(cur, Assume(b))
        if kind == "assert":
            # a no-op edge that still carries the assertion's reads
            self.expect(";")
            self.assertions.append(Assertion(cur, b, self.thread))
            return self.emit(cur, Assume(BoolLit(True)), vars_of_bool(b))
        out = self.out
        if kind == "while":
            head = self.settled(cur)
            body_exit = self.parse_block(self.emit(head, Assume(b)))
            out.append(Instruction(body_exit, Assume(BoolLit(True)), head))
            return self.emit(head, Assume(negate_bool(b)))
        then_exit = self.parse_block(self.emit(cur, Assume(b)))
        if kinds[self.pos] == "else":
            self.pos += 1
            # an empty else block is lowered as no else block
            if kinds[self.pos] != "{" or kinds[self.pos + 1] != "}":
                else_exit = self.parse_block(self.emit(cur, Assume(negate_bool(b))))
                join = self.emit(then_exit, Assume(BoolLit(True)))
                out.append(Instruction(else_exit, Assume(BoolLit(True)), join))
                return join
            self.parse_block(cur)
        then_exit = self.settled(then_exit)
        out.append(Instruction(cur, Assume(negate_bool(b)), then_exit))
        return then_exit

    # expressions

    def parse_expr(self) -> Expr:
        kinds = self.kinds
        terms: list = []
        sign = 1
        while True:
            self.parse_term(sign, terms)
            kind = kinds[self.pos]
            if kind == "+":
                sign = 1
            elif kind == "-":
                sign = -1
            else:
                return Expr(tuple(terms))
            self.pos += 1

    def parse_term(self, sign: int, terms: list) -> None:
        """Append the term `k1 * ... * kn * atom` to `terms`.  A group of one
        term adds its factors to the term's; a leading group with no factors
        is spliced into `terms`."""
        kinds, texts, pos = self.kinds, self.texts, self.pos
        factors = []
        while kinds[pos] == "num" and kinds[pos + 1] == "*":
            factors.append(self.literal(pos))
            pos += 2
        kind = kinds[pos]
        if kind == "ident":
            atom = texts[pos]
            if atom not in self.variables:
                raise _Fail(f"undeclared variable {atom!r}", pos)
            self.pos = pos + 1
        elif kind == "num":
            atom = self.literal(pos)
            self.pos = pos + 1
        elif kind == "havoc":
            atom = HAVOC
            self.pos = pos + 1
        elif kind == "(":
            self.pos = pos
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
            raise _Fail(f"expected an expression, found {self.found(pos)}", pos)
        terms.append((sign, tuple(factors), atom))

    # boolean expressions; precedence: ! > cmp > && > ||

    def parse_bexpr(self) -> BoolExpr:
        """An `&&` chain inside an `||` chain is a tree level that no
        parenthesis marks, so the openers inside it count one level deeper.
        Both chains are known only once parsed: a chain whose openers reach
        MAX_NESTING is parsed again one level deeper, to fail at the opener
        past it."""
        kinds = self.kinds
        outer, parts = self.peak, []
        while True:
            start, self.peak = self.pos, 0
            parts.append((start, self.parse_conjuncts(), self.peak))
            if kinds[self.pos] != "||":
                break
            self.pos += 1
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
        kinds = self.kinds
        conjuncts = [self.parse_batom()]
        while kinds[self.pos] == "&&":
            self.pos += 1
            conjuncts.append(self.parse_batom())
        return conjuncts

    def parse_batom(self) -> BoolExpr:
        kinds, pos = self.kinds, self.pos
        kind = kinds[pos]
        if kind == "!":
            self.open("!")
            b = NotExpr(self.parse_batom())
            self.depth -= 1
            return b
        if kind == "true" or kind == "false":
            self.pos = pos + 1
            return BoolLit(kind == "true")
        if kind == "(":
            # either a parenthesized bexpr or the left expr of a comparison
            saved = pos, self.depth, self.peak
            try:
                self.open("(")
                inner = self.parse_bexpr()
                self.close(")")
                if kinds[self.pos] in CMP_FN:
                    raise _Fail("comparison of boolean value", self.pos)
                return inner
            except _TooDeep:
                raise
            except _Fail:
                self.pos, self.depth, self.peak = saved
        left = self.parse_expr()
        at = self.pos
        op = kinds[at]
        if op not in CMP_FN:
            raise _Fail(f"expected a comparison operator, found {self.texts[at]!r}", at)
        self.pos = at + 1
        right = self.parse_expr()
        if left.linear.havocs or right.linear.havocs:
            raise _Fail("havoc is not allowed in boolean conditions", at)
        return Cmp(op, left, right)


def _outside_region(name: str, at: int) -> _Fail:
    # the variable's own region, when undeclared, would take the same name
    return _Fail(f"region {name!r} is named after a variable outside it", at)


def _chain(op: str, args: list) -> BoolExpr:
    """`args` joined by `op`; a leading parenthesised chain of `op` is
    spliced in, the way the printer prints it."""
    if len(args) == 1:
        return args[0]
    if isinstance(args[0], BoolOp) and args[0].op == op:
        args[:1] = args[0].args
    return BoolOp(op, tuple(args))


def parse_program(text: str) -> Program:
    """Parse source text into its lowered program: instructions, locations
    numbered from 1 in source order, and the assertion table."""
    parser = _Parser(text)
    try:
        return parser.parse_program()
    except _Fail as e:
        raise parser.located(e) from None


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
    parser.variables = dict.fromkeys(variables)
    try:
        declared = parser.parse_regions()
    except _Fail as e:
        raise parser.located(e) from None
    return RegionMap.from_declared(variables, declared)


def desugar(p: Program) -> Program:
    """The identity: `parse_program` already returns the lowered program.
    Kept for the benchmark's oracle and tests (perfbench/oracle.py,
    perfbench/test_perfbench.py), which still call it."""
    return p


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


# ---------------------------------------------------------------------------
# Validation


class Diagnostic(NamedTuple):
    message: str
    location: Optional[int] = None


def validate_program(p: Program) -> list[Diagnostic]:
    """Check Program invariants; one diagnostic each."""
    out: list[Diagnostic] = []

    seen: dict[int, str] = {}
    for t in p.threads:
        for loc in t.locations:
            if loc in seen and seen[loc] != t.name:
                out.append(Diagnostic(f"location {loc} appears in threads "
                                      f"{seen[loc]!r} and {t.name!r}", loc))
            seen[loc] = t.name

    by_source, by_target = p.by_source, p.by_target
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
