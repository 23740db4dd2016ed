"""Classical (single-assignment) evaluation of first-order formulas.

This is a separate code path from the team evaluator on purpose: the
translation and branching-quantifier checks compare their results against
team semantics, so the Tarskian side must not share its clause logic.

Formulas are compiled to nested closures once and then evaluated against
many environments; an environment is a mutable dict from variable name to
element id that quantifier closures update in place and restore.
"""

from __future__ import annotations

from typing import Callable

from .errors import LogicError
from .syntax import And, Const, DepAtom, Eq, Exists, Forall, Formula, IndAtom, Not, Or, Rel, Var

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
        body = compile_formula(f.body)
        var = f.var
        want = isinstance(f, Exists)

        def quant(d, r, c, e, _body=body, _var=var, _want=want):
            old = e.get(_var, _MISSING)
            try:
                for a in d:
                    e[_var] = a
                    if _body(d, r, c, e) == _want:
                        return _want
                return not _want
            finally:
                if old is _MISSING:
                    e.pop(_var, None)
                else:
                    e[_var] = old

        return quant
    if isinstance(f, (DepAtom, IndAtom)):
        raise LogicError("dependency atoms are not first-order")
    raise LogicError(f"formula is not first-order: {f!r}")
