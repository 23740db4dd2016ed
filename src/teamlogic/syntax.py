"""Formula language: AST, parser, printer, and quantifier rewrites.

Concrete syntax (ASCII only)::

    formula := quant | or
    quant   := ("forall"|"exists") VAR ["/" "{" VAR* "}"] "." formula
             | "branch" "{" row ";" row "}" "." formula
    or      := and ("or" and)*
    and     := unary ("and" unary)*
    unary   := "not" atom | atom | "(" formula ")"
    atom    := term "=" term | NAME "(" term ("," term)* ")"
             | "dep(" VAR* ";" VAR* ")" | "ind(" VAR* ";" VAR* ";" VAR* ")"
    row     := "forall" VAR "exists" VAR
    term    := VAR | NAME

Variables are lowercase-initial identifiers, constant and relation names
are uppercase-initial.  Negation is only allowed in front of atoms, the
slash is only legal on ``exists``, and quantifiers extend to the end of
their scope unless parenthesized.  Precedence: ``not`` > ``and`` > ``or``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Union

from .core import VarTuple
from .errors import LogicError, ParseError, ScopeError

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Const:
    name: str

    def __str__(self):
        return self.name


Term = Union[Var, Const]


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term


@dataclass(frozen=True)
class Rel:
    name: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class DepAtom:
    """=(determiner, determined): the determiner tuple fixes the determined one.

    Atoms keep their tuples as written; :meth:`canonical` is the set view
    the inference engine compares and stores.
    """

    determiner: VarTuple
    determined: VarTuple

    def canonical(self) -> "DepAtom":
        return DepAtom(
            tuple(sorted(set(self.determiner))), tuple(sorted(set(self.determined)))
        )

    def variables(self) -> frozenset[str]:
        return frozenset(self.determiner) | frozenset(self.determined)

    def __str__(self):
        return f"dep({_semicolon_join((self.determiner, self.determined))})"


@dataclass(frozen=True)
class IndAtom:
    """left and right vary freely of each other within each condition class."""

    left: VarTuple
    condition: VarTuple
    right: VarTuple

    def canonical(self) -> "IndAtom":
        return IndAtom(
            tuple(sorted(set(self.left))),
            tuple(sorted(set(self.condition))),
            tuple(sorted(set(self.right))),
        )

    def is_unconditional_single(self) -> bool:
        return len(self.left) == 1 and len(self.right) == 1 and not self.condition

    def variables(self) -> frozenset[str]:
        return frozenset(self.left) | frozenset(self.condition) | frozenset(self.right)

    def __str__(self):
        return f"ind({_semicolon_join((self.left, self.condition, self.right))})"


@dataclass(frozen=True)
class Not:
    """Negation, legal only directly over an atom."""

    atom: "Formula"

    def __post_init__(self):
        if not isinstance(self.atom, (Eq, Rel, DepAtom, IndAtom)):
            raise LogicError("negation is only allowed in front of atomic formulas")


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class SlashedExists:
    """``exists var/{slashed}. body``: choice independent of the slashed vars."""

    var: str
    slashed: VarTuple
    body: "Formula"


@dataclass(frozen=True)
class Henkin:
    """A two-row branching quantifier prefix over a matrix."""

    rows: tuple[tuple[str, str], ...]
    matrix: "Formula"

    def __post_init__(self):
        if len(self.rows) != 2 or any(len(row) != 2 for row in self.rows):
            raise LogicError("only two-row branching prefixes are supported")
        if len({v for row in self.rows for v in row}) != 4:
            raise LogicError("branching prefix binds a variable twice")


Formula = Union[
    Eq, Rel, DepAtom, IndAtom, Not, And, Or, Exists, Forall, SlashedExists, Henkin
]


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

KEYWORDS = frozenset({"forall", "exists", "branch", "and", "or", "not", "dep", "ind"})

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|[(){}.;,=/]|\S")


@dataclass(frozen=True)
class _Token:
    kind: str  # kw | var | name | sym | end
    value: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for lineno, raw in enumerate(text.splitlines() or [""], start=1):
        line = raw.split("#", 1)[0]
        for m in _TOKEN_RE.finditer(line):
            value = m.group()
            col = m.start() + 1
            if value[0].isalpha() or value[0] == "_":
                if value in KEYWORDS:
                    kind = "kw"
                elif value[0].isupper():
                    kind = "name"
                else:
                    kind = "var"
            elif value in "(){}.;,=/":
                kind = "sym"
            else:
                raise ParseError(f"unexpected character {value!r}", lineno, col)
            tokens.append(_Token(kind, value, lineno, col))
    last_line = text.count("\n") + 1
    tokens.append(_Token("end", "", last_line, len(text.splitlines()[-1]) + 1 if text else 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def error(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    def expect(self, kind: str, value: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            got = tok.value if tok.kind != "end" else "end of input"
            self.error(f"expected {want!r} but found {got!r}")
        return self.advance()

    def at(self, kind: str, value: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    # grammar ---------------------------------------------------------------

    def formula(self) -> Formula:
        if self.at("kw", "forall") or self.at("kw", "exists"):
            return self.quantifier()
        if self.at("kw", "branch"):
            return self.branch()
        return self.or_expr()

    def quantifier(self) -> Formula:
        kw = self.advance()
        var = self.expect("var").value
        slashed = None
        if self.at("sym", "/"):
            slash_tok = self.advance()
            if kw.value != "exists":
                self.error("the slash is only legal on 'exists'", slash_tok)
            self.expect("sym", "{")
            names = []
            while self.at("var"):
                names.append(self.advance().value)
            self.expect("sym", "}")
            slashed = tuple(names)
        self.expect("sym", ".")
        body = self.formula()
        if slashed is not None:
            return SlashedExists(var, slashed, body)
        return Exists(var, body) if kw.value == "exists" else Forall(var, body)

    def branch(self) -> Formula:
        self.expect("kw", "branch")
        self.expect("sym", "{")
        rows = [self.branch_row()]
        self.expect("sym", ";")
        rows.append(self.branch_row())
        self.expect("sym", "}")
        self.expect("sym", ".")
        return Henkin(tuple(rows), self.formula())

    def branch_row(self) -> tuple[str, str]:
        self.expect("kw", "forall")
        u = self.expect("var").value
        self.expect("kw", "exists")
        e = self.expect("var").value
        return (u, e)

    def or_expr(self) -> Formula:
        f = self.and_expr()
        while self.at("kw", "or"):
            self.advance()
            f = Or(f, self.and_expr())
        return f

    def and_expr(self) -> Formula:
        f = self.unary()
        while self.at("kw", "and"):
            self.advance()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        if self.at("kw", "not"):
            self.advance()
            if self.at("sym", "("):
                self.error("negation is only allowed in front of atomic formulas")
            return Not(self.atom())
        if self.at("sym", "("):
            self.advance()
            f = self.formula()
            self.expect("sym", ")")
            return f
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "kw" and tok.value == "dep":
            self.advance()
            self.expect("sym", "(")
            determiner = self.var_list()
            self.expect("sym", ";")
            determined = self.var_list()
            self.expect("sym", ")")
            return DepAtom(determiner, determined)
        if tok.kind == "kw" and tok.value == "ind":
            self.advance()
            self.expect("sym", "(")
            left = self.var_list()
            self.expect("sym", ";")
            condition = self.var_list()
            self.expect("sym", ";")
            right = self.var_list()
            self.expect("sym", ")")
            return IndAtom(left, condition, right)
        if tok.kind == "name":
            self.advance()
            if self.at("sym", "("):
                self.advance()
                args = [self.term()]
                while self.at("sym", ","):
                    self.advance()
                    args.append(self.term())
                self.expect("sym", ")")
                return Rel(tok.value, tuple(args))
            left: Term = Const(tok.value)
            self.expect("sym", "=")
            return Eq(left, self.term())
        if tok.kind == "var":
            self.advance()
            self.expect("sym", "=")
            return Eq(Var(tok.value), self.term())
        got = tok.value if tok.kind != "end" else "end of input"
        self.error(f"expected an atomic formula but found {got!r}")
        raise AssertionError("unreachable")

    def var_list(self) -> VarTuple:
        names = []
        while self.at("var"):
            names.append(self.advance().value)
        return tuple(names)

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind == "var":
            self.advance()
            return Var(tok.value)
        if tok.kind == "name":
            self.advance()
            return Const(tok.value)
        got = tok.value if tok.kind != "end" else "end of input"
        self.error(f"expected a term but found {got!r}")
        raise AssertionError("unreachable")


def parse_formula(text: str) -> Formula:
    parser = _Parser(_tokenize(text))
    f = parser.formula()
    tok = parser.peek()
    if tok.kind != "end":
        parser.error(f"unexpected trailing input {tok.value!r}")
    return f


def parse_atom_statement(text: str) -> DepAtom | IndAtom:
    """Parse one standalone ``dep(...)`` or ``ind(...)`` atom."""
    parser = _Parser(_tokenize(text))
    atom = parser.atom()
    tok = parser.peek()
    if tok.kind != "end":
        parser.error(f"unexpected trailing input {tok.value!r}")
    if not isinstance(atom, (DepAtom, IndAtom)):
        raise ParseError("expected a dep(...) or ind(...) atom")
    return atom


def parse_atoms_text(text: str) -> tuple[DepAtom | IndAtom, ...]:
    """Parse an atom-set file: one atom per line, '#' comments allowed."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            out.append(parse_atom_statement(line))
        except ParseError as exc:
            raise ParseError(f"{exc} (atom file line {lineno})") from exc
    return tuple(out)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_LEVEL_QUANT = 0
_LEVEL_OR = 1
_LEVEL_AND = 2
_LEVEL_ATOM = 3


def _semicolon_join(parts: tuple[VarTuple, ...]) -> str:
    tokens: list[str] = []
    for i, part in enumerate(parts):
        if i:
            tokens.append(";")
        tokens.extend(part)
    return " ".join(tokens)


def _level(f: Formula) -> int:
    if isinstance(f, (Exists, Forall, SlashedExists, Henkin)):
        return _LEVEL_QUANT
    if isinstance(f, Or):
        return _LEVEL_OR
    if isinstance(f, And):
        return _LEVEL_AND
    return _LEVEL_ATOM


def format_formula(f: Formula) -> str:
    return _fmt(f)


def _wrap(child: Formula, minimum: int) -> str:
    text = _fmt(child)
    if _level(child) < minimum:
        return f"({text})"
    return text


def _fmt(f: Formula) -> str:
    if isinstance(f, Eq):
        return f"{f.left} = {f.right}"
    if isinstance(f, Rel):
        return f"{f.name}({', '.join(str(a) for a in f.args)})"
    if isinstance(f, (DepAtom, IndAtom)):
        return str(f)
    if isinstance(f, Not):
        return f"not {_fmt(f.atom)}"
    if isinstance(f, And):
        return f"{_wrap(f.left, _LEVEL_AND)} and {_wrap(f.right, _LEVEL_AND + 1)}"
    if isinstance(f, Or):
        return f"{_wrap(f.left, _LEVEL_OR)} or {_wrap(f.right, _LEVEL_OR + 1)}"
    if isinstance(f, Exists):
        return f"exists {f.var}. {_fmt(f.body)}"
    if isinstance(f, Forall):
        return f"forall {f.var}. {_fmt(f.body)}"
    if isinstance(f, SlashedExists):
        return f"exists {f.var}/{{{' '.join(f.slashed)}}}. {_fmt(f.body)}"
    if isinstance(f, Henkin):
        rows = " ; ".join(f"forall {u} exists {e}" for u, e in f.rows)
        return f"branch {{{rows}}}. {_fmt(f.matrix)}"
    raise TypeError(f"not a formula: {f!r}")


# Deprecated aliases, kept for one release: use DepAtom, IndAtom and
# format_formula.
DepStatement = DepAtom
IndStatement = IndAtom
AtomStatement = Union[DepAtom, IndAtom]
format_atom_statement = format_formula


# ---------------------------------------------------------------------------
# Free variables and quantifier rewrites
# ---------------------------------------------------------------------------


def _term_vars(t: Term) -> Iterator[str]:
    if isinstance(t, Var):
        yield t.name


def free_vars(f: Formula) -> VarTuple:
    """Free variables in first-occurrence order.

    Every variable inside a dep/ind atom counts as a free occurrence.
    """
    out: list[str] = []
    seen: set[str] = set()

    def note(name: str, bound: frozenset[str]):
        if name not in bound and name not in seen:
            seen.add(name)
            out.append(name)

    def walk(node: Formula, bound: frozenset[str]):
        if isinstance(node, Eq):
            for t in (node.left, node.right):
                for name in _term_vars(t):
                    note(name, bound)
        elif isinstance(node, Rel):
            for t in node.args:
                for name in _term_vars(t):
                    note(name, bound)
        elif isinstance(node, DepAtom):
            for name in node.determiner + node.determined:
                note(name, bound)
        elif isinstance(node, IndAtom):
            for name in node.left + node.condition + node.right:
                note(name, bound)
        elif isinstance(node, Not):
            walk(node.atom, bound)
        elif isinstance(node, (And, Or)):
            walk(node.left, bound)
            walk(node.right, bound)
        elif isinstance(node, (Exists, Forall)):
            walk(node.body, bound | {node.var})
        elif isinstance(node, SlashedExists):
            for name in node.slashed:
                note(name, bound)
            walk(node.body, bound | {node.var})
        elif isinstance(node, Henkin):
            names = frozenset(v for row in node.rows for v in row)
            walk(node.matrix, bound | names)
        else:
            raise TypeError(f"not a formula: {node!r}")

    walk(f, frozenset())
    return tuple(out)


def desugar_slash(f: Formula) -> Formula:
    """Rewrite every slashed existential into an independence-atom form.

    ``exists x/{ys}. body`` becomes ``exists x. (ind(ys ; zs ; x) and body)``
    where ``zs`` lists the quantifier-bound variables in scope at the node,
    minus the slashed ones and x itself, in binding order.  Slashed
    variables must be bound by an enclosing quantifier.
    """

    def walk(node: Formula, ctx: tuple[str, ...]) -> Formula:
        if isinstance(node, (Eq, Rel, DepAtom, IndAtom, Not)):
            return node
        if isinstance(node, And):
            return And(walk(node.left, ctx), walk(node.right, ctx))
        if isinstance(node, Or):
            return Or(walk(node.left, ctx), walk(node.right, ctx))
        if isinstance(node, Exists):
            return Exists(node.var, walk(node.body, ctx + (node.var,)))
        if isinstance(node, Forall):
            return Forall(node.var, walk(node.body, ctx + (node.var,)))
        if isinstance(node, SlashedExists):
            missing = [v for v in node.slashed if v not in ctx]
            if missing:
                raise ScopeError(
                    f"slashed variable {missing[0]!r} is not bound in the enclosing context"
                )
            slashed = set(node.slashed)
            zs = tuple(v for v in ctx if v not in slashed and v != node.var)
            body = walk(node.body, ctx + (node.var,))
            return Exists(node.var, And(IndAtom(node.slashed, zs, (node.var,)), body))
        if isinstance(node, Henkin):
            names = tuple(v for row in node.rows for v in row)
            return Henkin(node.rows, walk(node.matrix, ctx + names))
        raise TypeError(f"not a formula: {node!r}")

    return walk(f, ())


def desugar_henkin(f: Formula) -> Formula:
    """Rewrite every two-row branching prefix into its linear form.

    ``branch {forall x exists y ; forall u exists v}. m`` becomes
    ``forall x. exists y. forall u. exists v. (ind(v ; u zs ; x y) and m)``
    with ``zs`` the free variables of the matrix other than x, y, u, v.
    The pair (x, y) is on the right: under lax semantics ``exists y`` may
    pick several values for one x, and v must not learn x through y.
    """

    def walk(node: Formula) -> Formula:
        if isinstance(node, (Eq, Rel, DepAtom, IndAtom, Not)):
            return node
        if isinstance(node, And):
            return And(walk(node.left), walk(node.right))
        if isinstance(node, Or):
            return Or(walk(node.left), walk(node.right))
        if isinstance(node, Exists):
            return Exists(node.var, walk(node.body))
        if isinstance(node, Forall):
            return Forall(node.var, walk(node.body))
        if isinstance(node, SlashedExists):
            return SlashedExists(node.var, node.slashed, walk(node.body))
        if isinstance(node, Henkin):
            (x, y), (u, v) = node.rows
            matrix = walk(node.matrix)
            zs = tuple(w for w in free_vars(matrix) if w not in {x, y, u, v})
            inner = And(IndAtom((v,), (u,) + zs, (x, y)), matrix)
            return Forall(x, Exists(y, Forall(u, Exists(v, inner))))
        raise TypeError(f"not a formula: {node!r}")

    return walk(f)


def is_first_order(f: Formula) -> bool:
    """No dep/ind atom and no slashed or branching quantifier.

    Such formulas are flat: a team satisfies one exactly when each of its
    rows does, under the classical single-assignment semantics.
    """
    if isinstance(f, (Eq, Rel)):
        return True
    if isinstance(f, Not):
        return isinstance(f.atom, (Eq, Rel))
    if isinstance(f, (And, Or)):
        return is_first_order(f.left) and is_first_order(f.right)
    if isinstance(f, (Exists, Forall)):
        return is_first_order(f.body)
    return False


def contains_sugar(f: Formula) -> bool:
    """True when the formula still has slashed or branching quantifiers."""
    if isinstance(f, (SlashedExists, Henkin)):
        return True
    if isinstance(f, (And, Or)):
        return contains_sugar(f.left) or contains_sugar(f.right)
    if isinstance(f, (Exists, Forall)):
        return contains_sugar(f.body)
    return False


def subformulas(f: Formula) -> Iterator[Formula]:
    yield f
    if isinstance(f, (And, Or)):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, (Exists, Forall, SlashedExists)):
        yield from subformulas(f.body)
    elif isinstance(f, Henkin):
        yield from subformulas(f.matrix)
    elif isinstance(f, Not):
        yield from subformulas(f.atom)


def conjuncts(f: Formula) -> list[Formula]:
    """The parts of a (nested) conjunction, left to right."""
    if isinstance(f, And):
        return conjuncts(f.left) + conjuncts(f.right)
    return [f]


def conjunction(parts) -> Formula:
    """The left-nested conjunction of one or more parts."""
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out
