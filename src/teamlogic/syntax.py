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

Each node class names in ``parts`` the fields holding its immediate
subformulas.  The walkers loop over that tuple inline (a helper call per
node is slower, ``any`` over a generator a frame deeper per level), and
both desugarings are rules of one top-down rewrite.  The printer and the
evaluators of other modules dispatch on node type by hand, for speed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Iterator, Sequence, Union

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
    parts: ClassVar[tuple[str, ...]] = ()
    left: Term
    right: Term


@dataclass(frozen=True)
class Rel:
    parts: ClassVar[tuple[str, ...]] = ()
    name: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class DepAtom:
    """=(determiner, determined): the determiner tuple fixes the determined one.

    Atoms keep their tuples as written; :meth:`canonical` is the set view
    the inference engine compares and stores.
    """

    parts: ClassVar[tuple[str, ...]] = ()
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

    parts: ClassVar[tuple[str, ...]] = ()
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

    parts: ClassVar[tuple[str, ...]] = ("atom",)
    atom: "Formula"

    def __post_init__(self):
        if not isinstance(self.atom, (Eq, Rel, DepAtom, IndAtom)):
            raise LogicError("negation is only allowed in front of atomic formulas")


@dataclass(frozen=True)
class And:
    parts: ClassVar[tuple[str, ...]] = ("left", "right")
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    parts: ClassVar[tuple[str, ...]] = ("left", "right")
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    parts: ClassVar[tuple[str, ...]] = ("body",)
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    parts: ClassVar[tuple[str, ...]] = ("body",)
    var: str
    body: "Formula"


@dataclass(frozen=True)
class SlashedExists:
    """``exists var/{slashed}. body``: choice independent of the slashed vars."""

    parts: ClassVar[tuple[str, ...]] = ("body",)
    var: str
    slashed: VarTuple
    body: "Formula"


@dataclass(frozen=True)
class Henkin:
    """A two-row branching quantifier prefix over a matrix."""

    parts: ClassVar[tuple[str, ...]] = ("matrix",)
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

# How loosely each node type binds; atoms and negations bind tightest.
_LEVEL = {Exists: 0, Forall: 0, SlashedExists: 0, Henkin: 0, Or: 1, And: 2}
_LEVEL_ATOM = 3


def _semicolon_join(parts: tuple[VarTuple, ...]) -> str:
    tokens: list[str] = []
    for i, part in enumerate(parts):
        if i:
            tokens.append(";")
        tokens.extend(part)
    return " ".join(tokens)


def format_formula(f: Formula) -> str:
    return _fmt(f)


def _wrap(child: Formula, minimum: int) -> str:
    text = _fmt(child)
    if _LEVEL.get(type(child), _LEVEL_ATOM) < minimum:
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
        return f"{_wrap(f.left, _LEVEL[And])} and {_wrap(f.right, _LEVEL[And] + 1)}"
    if isinstance(f, Or):
        return f"{_wrap(f.left, _LEVEL[Or])} or {_wrap(f.right, _LEVEL[Or] + 1)}"
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
# Walkers and quantifier rewrites
# ---------------------------------------------------------------------------


def _binds(node: Formula) -> VarTuple:
    """The variables the node's quantifier binds, in binding order."""
    if isinstance(node, (Exists, Forall, SlashedExists)):
        return (node.var,)
    if isinstance(node, Henkin):
        return tuple(v for row in node.rows for v in row)
    return ()


def _mentions(node: Formula) -> Sequence[str]:
    """The variables the node itself uses, outside its subformulas."""
    if isinstance(node, Eq):
        return [t.name for t in (node.left, node.right) if isinstance(t, Var)]
    if isinstance(node, Rel):
        return [t.name for t in node.args if isinstance(t, Var)]
    if isinstance(node, DepAtom):
        return node.determiner + node.determined
    if isinstance(node, IndAtom):
        return node.left + node.condition + node.right
    if isinstance(node, SlashedExists):
        return node.slashed
    return ()


def free_vars(f: Formula) -> VarTuple:
    """Free variables in first-occurrence order.

    Every variable inside a dep/ind atom counts as a free occurrence.
    """
    out: list[str] = []
    seen: set[str] = set()

    def walk(node: Formula, bound: VarTuple):
        for name in _mentions(node):
            if name not in bound and name not in seen:
                seen.add(name)
                out.append(name)
        if node.parts:
            bound += _binds(node)
            for field in node.parts:
                walk(getattr(node, field), bound)

    walk(f, ())
    return tuple(out)


def _rewrite(f: Formula, rule: Callable[[Formula, VarTuple], Formula], ctx: VarTuple) -> Formula:
    """Apply ``rule(node, ctx)`` top down, ``ctx`` being the variables bound
    above the node; a node is rebuilt only when one of its parts changed."""
    f = rule(f, ctx)
    inner = ctx + _binds(f)
    changed = {}
    for field in f.parts:
        old = getattr(f, field)
        new = _rewrite(old, rule, inner)
        if new is not old:
            changed[field] = new
    return replace(f, **changed) if changed else f


def _slash_rule(node: Formula, ctx: VarTuple) -> Formula:
    if not isinstance(node, SlashedExists):
        return node
    missing = [v for v in node.slashed if v not in ctx]
    if missing:
        raise ScopeError(
            f"slashed variable {missing[0]!r} is not bound in the enclosing context"
        )
    slashed = set(node.slashed)
    zs = tuple(v for v in ctx if v not in slashed and v != node.var)
    return Exists(node.var, And(IndAtom(node.slashed, zs, (node.var,)), node.body))


def desugar_slash(f: Formula) -> Formula:
    """Rewrite every slashed existential into an independence-atom form.

    ``exists x/{ys}. body`` becomes ``exists x. (ind(ys ; zs ; x) and body)``
    where ``zs`` lists the quantifier-bound variables in scope at the node,
    minus the slashed ones and x itself, in binding order.  Slashed
    variables must be bound by an enclosing quantifier.
    """
    return _rewrite(f, _slash_rule, ())


def _henkin_rule(node: Formula, ctx: VarTuple) -> Formula:
    if not isinstance(node, Henkin):
        return node
    (x, y), (u, v) = node.rows
    zs = tuple(w for w in free_vars(node.matrix) if w not in {x, y, u, v})
    inner = And(IndAtom((v,), (u,) + zs, (x, y)), node.matrix)
    return Forall(x, Exists(y, Forall(u, Exists(v, inner))))


def desugar_henkin(f: Formula) -> Formula:
    """Rewrite every two-row branching prefix into its linear form.

    ``branch {forall x exists y ; forall u exists v}. m`` becomes
    ``forall x. exists y. forall u. exists v. (ind(v ; u zs ; x y) and m)``
    with ``zs`` the free variables of the matrix other than x, y, u, v.
    The pair (x, y) is on the right: under lax semantics ``exists y`` may
    pick several values for one x, and v must not learn x through y.
    """
    return _rewrite(f, _henkin_rule, ())


def is_first_order(f: Formula) -> bool:
    """No dep/ind atom and no slashed or branching quantifier.

    Such formulas are flat: a team satisfies one exactly when each of its
    rows does, under the classical single-assignment semantics.
    """
    if isinstance(f, (DepAtom, IndAtom, SlashedExists, Henkin)):
        return False
    for field in f.parts:
        if not is_first_order(getattr(f, field)):
            return False
    return True


def contains_sugar(f: Formula) -> bool:
    """True when the formula still has slashed or branching quantifiers."""
    if isinstance(f, (SlashedExists, Henkin)):
        return True
    for field in f.parts:
        if contains_sugar(getattr(f, field)):
            return True
    return False


def subformulas(f: Formula) -> Iterator[Formula]:
    """The formula and all its subformulas, in pre-order."""
    yield f
    for field in f.parts:
        yield from subformulas(getattr(f, field))


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
