"""Translation of team formulas into existential second-order sentences.

A team formula over scope (x1..xn) becomes a sentence over the base
vocabulary extended with an n-ary team predicate S (renamed if a relation
has that name): relation variables over a conjunction of closed
first-order clauses.  The evaluator reads S as the team's relation,
backtracks over relation-variable tables and checks each clause as soon
as its relation variables are fixed, independently of the team evaluator.

The independence-atom clause is the load-bearing one; the connective and
quantifier clauses follow the usual relational encoding of team
operations (covers for disjunction, extension graphs for quantifiers) and
are trusted only as far as the agreement checks confirm them.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .core import Structure, Team, VarTuple, subsets, team_to_relation
from .errors import LogicError, ScopeError, SearchSpaceError
from .firstorder import compile_formula, guard, quantifier_block
from .semantics import evaluate
from .syntax import (
    And,
    DepAtom,
    Eq,
    Exists,
    Forall,
    Formula,
    IndAtom,
    Not,
    Or,
    Rel,
    Term,
    Var,
    contains_sugar,
    flatten,
    format_formula,
    free_vars,
    join,
    subformulas,
)

DEFAULT_RELATION_BITS_CAP = 22


@dataclass(frozen=True)
class EsoSentence:
    """An existential relation-variable prefix over a first-order matrix."""

    team_symbol: str
    team_arity: int
    scope: VarTuple
    relation_vars: tuple[tuple[str, int], ...]
    matrix: Formula


def format_eso(sentence: EsoSentence) -> str:
    prefix = " ".join(f"{name}/{arity}" for name, arity in sentence.relation_vars)
    head = f"exists2 {prefix} ." if prefix else "exists2 ."
    return f"{head} {format_formula(sentence.matrix)}"


def _forall_chain(names, body: Formula) -> Formula:
    for name in reversed(names):
        body = Forall(name, body)
    return body


def _exists_chain(names, body: Formula) -> Formula:
    for name in reversed(names):
        body = Exists(name, body)
    return body


def _rel(name: str, variables) -> Rel:
    return Rel(name, tuple(Var(v) for v in variables))


def _subst_term(t: Term, mapping: dict[str, str]) -> Term:
    if isinstance(t, Var):
        return Var(mapping[t.name])
    return t


def _subst_atom(atom: Formula, mapping: dict[str, str]) -> Formula:
    if isinstance(atom, Eq):
        return Eq(_subst_term(atom.left, mapping), _subst_term(atom.right, mapping))
    if isinstance(atom, Rel):
        return Rel(atom.name, tuple(_subst_term(a, mapping) for a in atom.args))
    if isinstance(atom, Not):
        return Not(_subst_atom(atom.atom, mapping))
    raise TypeError(f"not a pointwise atom: {atom!r}")


def _indices(scope: VarTuple, variables) -> tuple[int, ...]:
    out = set()
    for v in variables:
        try:
            out.add(scope.index(v))
        except ValueError:
            raise ScopeError(f"variable {v!r} is not in the scope {scope}") from None
    return tuple(sorted(out))


class _Translator:
    def __init__(self, taken: set[str]):
        self.counter = 0
        self.taken = taken  # relation names a fresh variable must avoid
        self.relation_vars: list[tuple[str, int]] = []

    def fresh(self, arity: int) -> str:
        self.counter += 1
        while f"S{self.counter}" in self.taken:
            self.counter += 1
        name = f"S{self.counter}"
        self.relation_vars.append((name, arity))
        return name

    # clause helpers --------------------------------------------------------

    def ind_atom(self, atom: IndAtom, team: str, scope: VarTuple) -> Formula:
        n = len(scope)
        left = _indices(scope, atom.left)
        cond = _indices(scope, atom.condition)
        right = _indices(scope, atom.right)
        ys = [f"y{i + 1}" for i in range(n)]
        zs = [f"z{i + 1}" for i in range(n)]
        us = [f"u{i + 1}" for i in range(n)]
        antecedent_negs: list[Formula] = [Not(_rel(team, ys)), Not(_rel(team, zs))]
        antecedent_negs.extend(Not(Eq(Var(ys[j]), Var(zs[j]))) for j in cond)
        witness_eqs: list[Formula] = [_rel(team, us)]
        witness_eqs.extend(Eq(Var(us[j]), Var(ys[j])) for j in cond)
        witness_eqs.extend(Eq(Var(us[i]), Var(ys[i])) for i in left)
        witness_eqs.extend(Eq(Var(us[k]), Var(zs[k])) for k in right)
        consequent = _exists_chain(us, join(witness_eqs, And))
        return _forall_chain(ys + zs, join(antecedent_negs + [consequent], Or))

    def pointwise(self, atom: Formula, team: str, scope: VarTuple) -> Formula:
        vs = [f"v{i + 1}" for i in range(len(scope))]
        mapping = dict(zip(scope, vs))
        return _forall_chain(vs, Or(Not(_rel(team, vs)), _subst_atom(atom, mapping)))

    def empty_team(self, team: str, scope: VarTuple) -> Formula:
        vs = [f"v{i + 1}" for i in range(len(scope))]
        return _forall_chain(vs, Not(_rel(team, vs)))

    # main recursion ---------------------------------------------------------

    def translate(self, f: Formula, team: str, scope: VarTuple) -> Formula:
        if isinstance(f, IndAtom):
            return self.ind_atom(f, team, scope)
        if isinstance(f, DepAtom):
            return self.ind_atom(IndAtom(f.determined, f.determiner, f.determined), team, scope)
        if isinstance(f, (Eq, Rel)):
            return self.pointwise(f, team, scope)
        if isinstance(f, Not):
            if isinstance(f.atom, (Eq, Rel)):
                return self.pointwise(f, team, scope)
            return self.empty_team(team, scope)
        if isinstance(f, And):
            return And(self.translate(f.left, team, scope), self.translate(f.right, team, scope))
        if isinstance(f, Or):
            n = len(scope)
            s1 = self.fresh(n)
            s2 = self.fresh(n)
            vs = [f"v{i + 1}" for i in range(n)]
            cover = _forall_chain(
                vs, join([Not(_rel(team, vs)), _rel(s1, vs), _rel(s2, vs)], Or)
            )
            within1 = _forall_chain(vs, Or(Not(_rel(s1, vs)), _rel(team, vs)))
            within2 = _forall_chain(vs, Or(Not(_rel(s2, vs)), _rel(team, vs)))
            return join(
                [
                    cover,
                    within1,
                    within2,
                    self.translate(f.left, s1, scope),
                    self.translate(f.right, s2, scope),
                ],
                And,
            )
        if isinstance(f, Exists):
            return self.quantifier(f, team, scope, universal=False)
        if isinstance(f, Forall):
            return self.quantifier(f, team, scope, universal=True)
        raise LogicError(f"formula cannot be translated: {f!r}")

    def quantifier(self, f, team: str, scope: VarTuple, universal: bool) -> Formula:
        # A new variable gets a new last column; a re-quantified one has its
        # column overwritten and the arity stays.
        n = len(scope)
        vs = [f"v{i + 1}" for i in range(n)]
        w = f"v{n + 1}"
        pos = scope.index(f.var) if f.var in scope else n
        ext = vs[:pos] + [w] + vs[pos + 1 :]
        fresh = self.fresh(len(ext))
        # every extended row projects to a team row
        if pos == n:
            ax_projection = _forall_chain(ext, Or(Not(_rel(fresh, ext)), _rel(team, vs)))
        else:
            ax_projection = _forall_chain(
                vs, Or(Not(_rel(fresh, vs)), Exists(w, _rel(team, ext)))
            )
        if universal:
            ax_total = _forall_chain(vs + [w], Or(Not(_rel(team, vs)), _rel(fresh, ext)))
        else:
            ax_total = _forall_chain(vs, Or(Not(_rel(team, vs)), Exists(w, _rel(fresh, ext))))
        body = self.translate(f.body, fresh, scope if pos < n else scope + (f.var,))
        return join([ax_projection, ax_total, body], And)


def _relation_names(f: Formula) -> set[str]:
    return {g.name for g in subformulas(f) if isinstance(g, Rel)}


def _unused(symbol: str, taken) -> str:
    while symbol in taken:
        symbol += "0"
    return symbol


def translate(f: Formula, scope, team_symbol: str = "S") -> EsoSentence:
    """Build the second-order counterpart of a team formula over a scope."""
    scope = tuple(scope)
    if len(set(scope)) != len(scope):
        raise LogicError("scope variables must be distinct")
    if contains_sugar(f):
        raise LogicError("slashed and branching quantifiers must be rewritten first")
    missing = [v for v in free_vars(f) if v not in scope]
    if missing:
        raise ScopeError(f"free variable {missing[0]!r} is not in the scope {scope}")
    names = _relation_names(f)
    team_symbol = _unused(team_symbol, names)
    tr = _Translator(names | {team_symbol})
    matrix = tr.translate(f, team_symbol, scope)
    return EsoSentence(team_symbol, len(scope), scope, tuple(tr.relation_vars), matrix)


def _cell_filter(f: Formula, name: str):
    """``(v1..vk, phi)`` when f is ``forall v1..vk. (not name(v1..vk) or phi)``
    over distinct variables and phi does not mention ``name``; phi is
    None when the conjunct has no other disjunct."""
    if not isinstance(f, Forall):
        return None
    block, body = quantifier_block(f)
    parts = flatten(body, Or)
    for k, part in enumerate(parts):
        g = guard(part, universal=True)
        if g is not None and g[0] == name and set(g[1]) == set(block):
            rest = parts[:k] + parts[k + 1 :]
            if any(name in _relation_names(p) for p in rest):
                return None
            return g[1], join(rest, Or) if rest else None
    return None


@functools.lru_cache(maxsize=128)
def _plan(sentence: EsoSentence):
    """The relation variables, and per level the compiled conjuncts and the
    compiled cell filters; level i > 0 is the i-th relation variable."""
    names = [name for name, _ in sentence.relation_vars]
    level_of = {name: i + 1 for i, name in enumerate(names)}
    checks: list[list] = [[] for _ in range(len(names) + 1)]
    filters: list[list] = [[] for _ in range(len(names) + 1)]
    for f in flatten(sentence.matrix, And):
        # without relation variables all conjuncts are level 0: skip the walk
        level = max((level_of.get(n, 0) for n in _relation_names(f)), default=0) if names else 0
        cell_filter = _cell_filter(f, names[level - 1]) if level else None
        if cell_filter is None:
            checks[level].append(compile_formula(f))
        else:
            args, phi = cell_filter
            filters[level].append((args, compile_formula(phi) if phi else lambda *_: False))
    return names, checks, filters


def eval_eso(
    structure: Structure,
    team: Team,
    sentence: EsoSentence,
    max_bits: int = DEFAULT_RELATION_BITS_CAP,
) -> bool:
    """Decide the translated sentence by backtracking over relation tables.

    The team symbol is the team's relation; each relation variable tries
    its tables in ascending popcount, up to a cap on the total cell count.
    A top-level conjunct of the matrix is checked as soon as the last
    relation variable it names is fixed.  The pruning is exact: every
    completion gives a failed conjunct the same tables, so it fails too.

    A conjunct ``forall v1..vk. (not S(v1..vk) or phi)`` of S's level,
    with phi free of S, is an inclusion (the translation gives every
    relation variable one: a disjunct's subteam lies within the team, a
    quantifier's extension projects onto it).  Once the earlier relation
    variables are fixed, phi is evaluated once per cell, and S draws its
    tables only from the cells that pass.  This is exact too: a table
    holding a failing cell fails the conjunct, one holding none satisfies
    it.  The cap counts every cell, filtered or not.  The plan (levels,
    compiled checks and filters) is built once per sentence.
    """
    if max_bits < 0:
        raise LogicError("the relation cell bound is negative")
    if sentence.team_symbol in structure.relations:
        raise LogicError(
            f"relation {sentence.team_symbol!r} clashes with the team symbol"
        )
    size = structure.size
    bits = sum(size**arity for _, arity in sentence.relation_vars)
    if bits > max_bits:
        raise SearchSpaceError(
            f"ESO search too large: {bits} relation cells exceed the cap of {max_bits}"
        )
    relations: dict = dict(structure.relations)
    relations[sentence.team_symbol] = team_to_relation(team, sentence.scope)
    constants = structure.constants
    domain = tuple(structure.domain_ids())
    cell_space = [
        sorted(itertools.product(domain, repeat=arity))
        for _, arity in sentence.relation_vars
    ]
    names, checks, filters = _plan(sentence)

    def search(i: int) -> bool:
        if not all(check(domain, relations, constants, {}) for check in checks[i]):
            return False
        if i == len(names):
            return True
        cells = cell_space[i]
        for args, allows in filters[i + 1]:
            cells = [
                cell for cell in cells if allows(domain, relations, constants, dict(zip(args, cell)))
            ]
        for table in map(frozenset, subsets(cells)):
            relations[names[i]] = table
            if search(i + 1):
                return True
        return False

    return search(0)


@dataclass(frozen=True)
class TranslationCheck:
    team_value: bool
    eso_value: bool

    @property
    def agree(self) -> bool:
        return self.team_value == self.eso_value


def check_translation(
    structure: Structure,
    team: Team,
    f: Formula,
    mode: str = "lax",
    max_bits: int = DEFAULT_RELATION_BITS_CAP,
) -> TranslationCheck:
    """Evaluate both routes on the same input and report both verdicts."""
    taken = structure.relations.keys() | _relation_names(f)
    sentence = translate(f, team.scope, _unused("S", taken))
    return TranslationCheck(
        evaluate(structure, team, f, mode=mode),
        eval_eso(structure, team, sentence, max_bits=max_bits),
    )
