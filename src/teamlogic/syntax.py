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

The tokenizer makes one regex scan per line, ``#`` comments cut off, and
yields ``(kind, value, line, column)`` tuples.  A keyword or symbol is
its own kind (``"forall"``, ``"("``), any other word is ``"name"`` or
``"var"``, and any other non-space character, a non-ASCII letter too, is
an error.  A final ``"end"`` token, valued ``"end of input"``, sits just
past the last character.

Each node class names in ``parts`` the fields holding its immediate
subformulas.  The walkers loop over that tuple inline (a helper call per
node is slower, ``any`` over a generator a frame deeper per level), and
both desugarings are rules of one top-down rewrite.  The printer and the
evaluators of other modules dispatch on node type by hand, for speed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Iterator, NoReturn, Sequence, Union

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

    def as_dep(self) -> "DepAtom | None":
        """The dep atom this one says, or None: ``ind(L ; C ; R)`` with L∖C in
        R says ``dep(C ; L∖C)``, since in a condition class each left pattern
        meets each right one; and symmetrically with the sides swapped."""
        for side, other in ((self.left, self.right), (self.right, self.left)):
            rest = tuple(v for v in side if v not in self.condition)
            if set(rest) <= set(other):
                return DepAtom(self.condition, rest)
        return None

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

# A word, a symbol, or any other non-space character (an error).
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|[(){}.;,=/]|\S")

# The kind of each keyword and symbol, and of any other word by its first
# character; a token found in neither is an error.
_KINDS = {k: k for k in (*KEYWORDS, *"(){}.;,=/")}
_WORD_KINDS = {
    c: "name" if c.isupper() else "var" for c in map(chr, range(128)) if c.isalpha() or c == "_"
}


def _tokenize(text: str, first_line: int = 1) -> list[tuple[str, str, int, int]]:
    """(kind, value, line, column) tuples, ending with an ``end`` token; the
    text's lines are numbered from `first_line`."""
    tokens = []
    # The appended space makes the last line non-empty and marks the column
    # just past the text, where the end token goes.
    for lineno, line in enumerate((text + " ").splitlines(), start=first_line):
        for m in _TOKEN_RE.finditer(line.split("#", 1)[0]):
            value = m.group()
            kind = _KINDS.get(value) or _WORD_KINDS.get(value[0])
            if kind is None:
                raise ParseError(f"unexpected character {value!r}", lineno, m.start() + 1)
            tokens.append((kind, value, lineno, m.start() + 1))
    tokens.append(("end", "end of input", lineno, len(line)))
    return tokens


class _Parser:
    """Recursive descent over the tokens; ``at``/``expect`` name a kind."""

    def __init__(self, tokens: list[tuple[str, str, int, int]]):
        self.tokens = tokens
        self.pos = 0

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos][0] == kind

    def advance(self) -> str:
        """Step past the current token, which is not the end; its value."""
        self.pos += 1
        return self.tokens[self.pos - 1][1]

    def found(self) -> str:
        """The current token's value; the end token's reads 'end of input'."""
        return self.tokens[self.pos][1]

    def error(self, message: str) -> NoReturn:
        _, _, line, column = self.tokens[self.pos]
        raise ParseError(message, line, column)

    def expect(self, kind: str) -> str:
        if not self.at(kind):
            self.error(f"expected {kind!r} but found {self.found()!r}")
        return self.advance()

    # grammar ---------------------------------------------------------------

    def formula(self) -> Formula:
        if self.at("forall") or self.at("exists"):
            return self.quantifier()
        if self.at("branch"):
            return self.branch()
        return self.or_expr()

    def quantifier(self) -> Formula:
        kw = self.advance()
        var = self.expect("var")
        if self.at("/"):
            if kw != "exists":
                self.error("the slash is only legal on 'exists'")
            self.advance()
            self.expect("{")
            slashed = self.var_list()
            self.expect("}")
            self.expect(".")
            return SlashedExists(var, slashed, self.formula())
        self.expect(".")
        return (Exists if kw == "exists" else Forall)(var, self.formula())

    def branch(self) -> Formula:
        self.advance()
        self.expect("{")
        rows = [self.branch_row()]
        self.expect(";")
        rows.append(self.branch_row())
        self.expect("}")
        self.expect(".")
        return Henkin(tuple(rows), self.formula())

    def branch_row(self) -> tuple[str, str]:
        self.expect("forall")
        u = self.expect("var")
        self.expect("exists")
        return (u, self.expect("var"))

    def or_expr(self) -> Formula:
        f = self.and_expr()
        while self.at("or"):
            self.advance()
            f = Or(f, self.and_expr())
        return f

    def and_expr(self) -> Formula:
        f = self.unary()
        while self.at("and"):
            self.advance()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        if self.at("not"):
            self.advance()
            if self.at("("):
                self.error("negation is only allowed in front of atomic formulas")
            return Not(self.atom())
        if self.at("("):
            self.advance()
            f = self.formula()
            self.expect(")")
            return f
        return self.atom()

    def atom(self) -> Formula:
        kind = self.tokens[self.pos][0]
        if kind == "dep" or kind == "ind":
            self.advance()
            self.expect("(")
            lists = [self.var_list()]
            while len(lists) < (2 if kind == "dep" else 3):
                self.expect(";")
                lists.append(self.var_list())
            self.expect(")")
            return DepAtom(*lists) if kind == "dep" else IndAtom(*lists)
        if kind == "name":
            name = self.advance()
            if self.at("("):
                self.advance()
                args = [self.term()]
                while self.at(","):
                    self.advance()
                    args.append(self.term())
                self.expect(")")
                return Rel(name, tuple(args))
            self.expect("=")
            return Eq(Const(name), self.term())
        if kind == "var":
            name = self.advance()
            self.expect("=")
            return Eq(Var(name), self.term())
        self.error(f"expected an atomic formula but found {self.found()!r}")

    def var_list(self) -> VarTuple:
        names = []
        while self.at("var"):
            names.append(self.advance())
        return tuple(names)

    def term(self) -> Term:
        if self.at("var"):
            return Var(self.advance())
        if self.at("name"):
            return Const(self.advance())
        self.error(f"expected a term but found {self.found()!r}")


def parse_formula(text: str) -> Formula:
    parser = _Parser(_tokenize(text))
    f = parser.formula()
    if not parser.at("end"):
        parser.error(f"unexpected trailing input {parser.found()!r}")
    return f


def _only_atom(tokens) -> DepAtom | IndAtom:
    """The one ``dep(...)`` or ``ind(...)`` atom that the tokens spell."""
    parser = _Parser(tokens)
    atom = parser.atom()
    if not parser.at("end"):
        parser.error(f"unexpected trailing input {parser.found()!r}")
    if not isinstance(atom, (DepAtom, IndAtom)):
        raise ParseError("expected a dep(...) or ind(...) atom")
    return atom


def parse_atom_statement(text: str) -> DepAtom | IndAtom:
    """Parse one standalone ``dep(...)`` or ``ind(...)`` atom."""
    return _only_atom(_tokenize(text))


def parse_atoms_text(text: str) -> tuple[DepAtom | IndAtom, ...]:
    """Parse an atom-set file: one atom per line, '#' comments allowed.
    Errors give the file's own line and column."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(line, lineno)
        if tokens[0][0] == "end":
            continue
        if tokens[0][0] not in ("dep", "ind"):
            raise ParseError("expected a dep(...) or ind(...) atom", lineno, tokens[0][3])
        out.append(_only_atom(tokens))
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
    hidden = {node.var, *node.slashed}
    zs = dict.fromkeys(v for v in ctx + free_vars(node.body) if v not in hidden)
    return Exists(node.var, And(IndAtom(node.slashed, tuple(zs), (node.var,)), node.body))


def desugar_slash(f: Formula) -> Formula:
    """Rewrite every slashed existential into an independence-atom form.

    ``exists x/{ys}. body`` becomes ``exists x. (ind(ys ; zs ; x) and body)``,
    ``zs`` being each variable bound above the node or free in the body, once,
    less x and ys: the bound ones in binding order, then the free ones.  The
    ys must be bound above.  :func:`desugar_henkin` reads ``branch {forall x
    exists y ; forall u exists v}. m`` as ``forall x. exists y. forall u.
    exists v/{x y}. m`` (lax ``exists y`` may pick several values for one x,
    and v must not learn x through y) and applies the same rule.  Each
    function rewrites only its own sugar.
    """
    return _rewrite(f, _slash_rule, ())


def _henkin_rule(node: Formula, ctx: VarTuple) -> Formula:
    if not isinstance(node, Henkin):
        return node
    (x, y), (u, v) = node.rows
    inner = _slash_rule(SlashedExists(v, (x, y), node.matrix), ctx + (x, y, u))
    return Forall(x, Exists(y, Forall(u, inner)))


def desugar_henkin(f: Formula) -> Formula:
    """Rewrite every two-row branching prefix; see :func:`desugar_slash`."""
    return _rewrite(f, _henkin_rule, ())


def _contains(f: Formula, kinds: tuple[type, ...]) -> bool:
    """Is the formula or one of its subformulas of one of the kinds?"""
    if isinstance(f, kinds):
        return True
    for field in f.parts:
        if _contains(getattr(f, field), kinds):
            return True
    return False


def is_first_order(f: Formula) -> bool:
    """No dep/ind atom and no slashed or branching quantifier.

    Such formulas are flat: a team satisfies one exactly when each of its
    rows does, under the classical single-assignment semantics.
    """
    return not _contains(f, (DepAtom, IndAtom, SlashedExists, Henkin))


def contains_sugar(f: Formula) -> bool:
    """True when the formula still has slashed or branching quantifiers."""
    return _contains(f, (SlashedExists, Henkin))


def subformulas(f: Formula) -> Iterator[Formula]:
    """The formula and all its subformulas, in pre-order."""
    yield f
    for field in f.parts:
        yield from subformulas(getattr(f, field))


def flatten(f: Formula, kind: type) -> list[Formula]:
    """The parts of a nested ``And`` or ``Or`` (``kind``), left to right."""
    if isinstance(f, kind):
        return flatten(f.left, kind) + flatten(f.right, kind)
    return [f]


def join(parts, kind: type) -> Formula:
    """The left-nested ``And`` or ``Or`` (``kind``) of one or more parts."""
    out = parts[0]
    for p in parts[1:]:
        out = kind(out, p)
    return out
