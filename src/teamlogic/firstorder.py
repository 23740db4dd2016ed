"""Classical (single-assignment) evaluation of first-order formulas.

This is a separate code path from the team evaluator on purpose: the
translation and branching-quantifier checks compare their results against
team semantics, so the Tarskian side must not share its clause logic.

Formulas are compiled to nested closures once and then evaluated against
many environments; an environment is a mutable dict from variable name to
element id that quantifier closures update in place and restore.

A quantifier block is range-restricted where a guard allows it (the
guarded fragment of Andréka, van Benthem and Németi; Abiteboul, Hull and
Vianu, *Foundations of Databases*, ch. 5).  In the longest chain of
``forall`` over distinct variables, a disjunct ``not R(v1..vk)`` of the
body over distinct variables, some bound by the chain, is a guard: values
outside R make it true, and the body with it.  So the block binds those
variables from R's tuples that agree with the values bound already, the
rest from the domain, and checks only the other disjuncts.  Dually,
``exists`` binds through conjuncts ``R(v1..vk)``, since values outside R
make the body false.  This is exact while every relation holds tuples of
domain elements only, as all it is given do: structure relations, the
team relation of ``core.team_to_relation`` and the relation-variable
tables the ESO checker draws from the domain's cells.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable

from .errors import LogicError
from .syntax import (
    And,
    Const,
    DepAtom,
    Eq,
    Exists,
    Forall,
    Formula,
    IndAtom,
    Not,
    Or,
    Rel,
    Var,
    flatten,
    join,
)

_MISSING = object()


def _compile_term(t) -> Callable:
    if isinstance(t, Var):
        name = t.name

        def value(domain, relations, constants, env, _name=name):
            try:
                return env[_name]
            except KeyError:
                raise LogicError(f"unbound variable {_name!r}") from None

    elif isinstance(t, Const):
        name = t.name

        def value(domain, relations, constants, env, _name=name):
            try:
                return constants[_name]
            except KeyError:
                raise LogicError(f"unknown constant {_name!r}") from None

    else:
        raise TypeError(f"not a term: {t!r}")
    return value


def quantifier_block(f: Exists | Forall) -> tuple[tuple[str, ...], Formula]:
    """The variables of the longest chain of f's quantifier over distinct
    variables at the top of f, and the chain's body."""
    names: list[str] = []
    body = f
    while isinstance(body, type(f)) and body.var not in names:
        names.append(body.var)
        body = body.body
    return tuple(names), body


def guard(part: Formula, universal: bool) -> tuple[str, tuple[str, ...]] | None:
    """``(R, (v1..vk))`` when the part is ``not R(v1..vk)`` (universal) or
    ``R(v1..vk)`` (existential) over distinct variables."""
    if universal:
        if not isinstance(part, Not):
            return None
        part = part.atom
    if not isinstance(part, Rel):
        return None
    names = tuple(a.name for a in part.args if isinstance(a, Var))
    if len(names) != len(part.args) or len(set(names)) != len(names):
        return None
    return part.name, names


def _no_key(_) -> None:
    return None


def _guard_step(name: str, names: tuple[str, ...], free: list[str], inner, want: bool):
    """Bind the still free variables among ``names`` from R's tuples that
    agree with the values of the others, and run ``inner`` on each binding."""
    arity = len(names)
    bind = [(i, v) for i, v in enumerate(names) if v in free]
    test = [i for i, v in enumerate(names) if v not in free]
    of_tuple = itemgetter(*test) if test else _no_key
    of_env = itemgetter(*(names[i] for i in test)) if test else _no_key

    def step(d, r, c, e):
        try:
            table = r[name]
        except KeyError:
            raise LogicError(f"unknown relation {name!r}") from None
        try:
            key = of_env(e)
        except KeyError as exc:
            raise LogicError(f"unbound variable {exc.args[0]!r}") from None
        for t in table:
            if len(t) == arity and of_tuple(t) == key:
                for i, v in bind:
                    e[v] = t[i]
                if inner(d, r, c, e) == want:
                    return want
        return not want

    return step


def _domain_step(var: str, inner, want: bool):
    """Bind ``var`` to each domain element in turn and run ``inner``."""

    def step(d, r, c, e):
        for a in d:
            e[var] = a
            if inner(d, r, c, e) == want:
                return want
        return not want

    return step


def _compile_block(f: Exists | Forall) -> Callable:
    """A quantifier block: guard steps, then the domain for the variables
    no guard binds, then the parts of the body that are not guards."""
    want = isinstance(f, Exists)
    kind = And if want else Or
    block, body = quantifier_block(f)
    free = list(block)
    guards, rest = [], []
    for part in flatten(body, kind):
        g = guard(part, universal=not want)
        if g is not None and any(v in free for v in g[1]):
            guards.append((*g, free))
            free = [v for v in free if v not in g[1]]
        else:
            rest.append(part)
    # A binding decides the guards, so only the rest is checked; when nothing
    # else is left, the guards are (their value under any binding is ``want``).
    step = compile_formula(join(rest, kind) if guards and rest else body)
    for v in reversed(free):
        step = _domain_step(v, step, want)
    for name, names, unbound in reversed(guards):
        step = _guard_step(name, names, unbound, step, want)

    def quant(d, r, c, e):
        saved = [(v, e.get(v, _MISSING)) for v in block]
        try:
            return step(d, r, c, e)
        finally:
            for v, old in saved:
                if old is _MISSING:
                    e.pop(v, None)
                else:
                    e[v] = old

    return quant


def compile_formula(f: Formula) -> Callable:
    """Compile to ``fn(domain, relations, constants, env) -> bool``.

    ``relations`` maps relation name to a set of id tuples; team and
    relation-variable symbols are just entries in that mapping.
    """
    if isinstance(f, Eq):
        lv, rv = _compile_term(f.left), _compile_term(f.right)
        return lambda d, r, c, e: lv(d, r, c, e) == rv(d, r, c, e)
    if isinstance(f, Rel):
        name = f.name
        args = tuple(_compile_term(a) for a in f.args)

        def rel(d, r, c, e, _name=name, _args=args):
            try:
                table = r[_name]
            except KeyError:
                raise LogicError(f"unknown relation {_name!r}") from None
            return tuple(a(d, r, c, e) for a in _args) in table

        return rel
    if isinstance(f, Not):
        inner = compile_formula(f.atom)
        return lambda d, r, c, e: not inner(d, r, c, e)
    if isinstance(f, And):
        left, right = compile_formula(f.left), compile_formula(f.right)
        return lambda d, r, c, e: left(d, r, c, e) and right(d, r, c, e)
    if isinstance(f, Or):
        left, right = compile_formula(f.left), compile_formula(f.right)
        return lambda d, r, c, e: left(d, r, c, e) or right(d, r, c, e)
    if isinstance(f, (Exists, Forall)):
        return _compile_block(f)
    if isinstance(f, (DepAtom, IndAtom)):
        raise LogicError("dependency atoms are not first-order")
    raise LogicError(f"formula is not first-order: {f!r}")
