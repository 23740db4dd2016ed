"""Seeded random generation of structures, teams, formulas, and atom sets.

These generators back the randomized portions of the test suite, so they
take an explicit ``random.Random`` and are fully deterministic for a
fixed seed.  The formula generator can bound the cost of both evaluation
routes (worst-case team growth for the team evaluator, relation-variable
cells for the second-order check) so sampled instances stay desk-scale.
"""

from __future__ import annotations

import itertools
import random

from .core import Structure, Team
from .eso import translate
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
    Var,
)


def random_structure(rng: random.Random, size: int, arities: dict[str, int] | None = None,
                     density: float = 0.5) -> Structure:
    relations = {}
    for name, arity in (arities or {}).items():
        cells = list(itertools.product(range(size), repeat=arity))
        table = [c for c in cells if rng.random() < density]
        relations[name] = (arity, table)
    return Structure([str(i) for i in range(size)], relations)


def random_team(rng: random.Random, size: int, variables, max_rows: int,
                min_rows: int = 0) -> Team:
    variables = tuple(variables)
    space = list(itertools.product(range(size), repeat=len(variables)))
    upper = min(max_rows, len(space))
    k = rng.randint(min(min_rows, upper), upper)
    return Team(variables, rng.sample(space, k))


def _random_tuple(rng: random.Random, pool, max_len: int, allow_empty: bool = True):
    low = 0 if allow_empty else 1
    k = rng.randint(low, min(max_len, len(pool)))
    return tuple(rng.sample(list(pool), k))


def random_formula(
    rng: random.Random,
    variables,
    depth: int,
    relations: dict[str, int] | None = None,
    allow_dependency_atoms: bool = True,
    quantifier_pool=("q1", "q2"),
    p_quantifier: float = 0.25,
    p_or: float = 0.5,
) -> Formula:
    """A random rewrite-free formula with free variables among ``variables``."""
    variables = list(variables)
    relations = relations or {}

    def atom(pool) -> Formula:
        kinds = ["eq"]
        if relations:
            kinds.append("rel")
        if allow_dependency_atoms:
            kinds.extend(["dep", "ind"])
        kind = rng.choice(kinds)
        if kind == "eq":
            a, b = rng.choice(pool), rng.choice(pool)
            base: Formula = Eq(Var(a), Var(b))
            return Not(base) if rng.random() < 0.3 else base
        if kind == "rel":
            name = rng.choice(sorted(relations))
            args = tuple(Var(rng.choice(pool)) for _ in range(relations[name]))
            base = Rel(name, args)
            return Not(base) if rng.random() < 0.3 else base
        if kind == "dep":
            return DepAtom(_random_tuple(rng, pool, 2), _random_tuple(rng, pool, 2, False))
        return IndAtom(
            _random_tuple(rng, pool, 2, False),
            _random_tuple(rng, pool, 1),
            _random_tuple(rng, pool, 2, False),
        )

    def build(pool, budget: int) -> Formula:
        if budget <= 1 or not pool:
            return atom(pool)
        roll = rng.random()
        fresh = [q for q in quantifier_pool if q not in pool]
        if fresh and roll < p_quantifier:
            var = fresh[0]
            body = build(pool + [var], budget - 1)
            return Exists(var, body) if rng.random() < 0.5 else Forall(var, body)
        left = build(pool, budget - 1)
        right = build(pool, budget - 1)
        return Or(left, right) if rng.random() < p_or else And(left, right)

    return build(variables, depth)


def random_fo_formula(rng: random.Random, variables, depth: int,
                      relations: dict[str, int] | None = None) -> Formula:
    """A random first-order (dependency-atom-free) formula."""
    return random_formula(
        rng, variables, depth, relations=relations, allow_dependency_atoms=False
    )


def estimate_eval_cost(f: Formula, base_rows: int, size: int) -> int:
    """Rough worst-case work for the team evaluator: covers dominate."""
    def walk(node: Formula, rows: int) -> int:
        rows = max(rows, 1)
        if isinstance(node, (Eq, Rel, Not, DepAtom, IndAtom)):
            return rows
        if isinstance(node, And):
            return walk(node.left, rows) + walk(node.right, rows)
        if isinstance(node, Or):
            return 3**rows + walk(node.left, rows) + walk(node.right, rows)
        if isinstance(node, Exists):
            grown = rows * size
            return (2**size) ** rows + walk(node.body, grown)
        if isinstance(node, Forall):
            return walk(node.body, rows * size)
        raise TypeError(f"unexpected node {node!r}")

    return walk(f, base_rows)


def eso_bits(f: Formula, scope, size: int) -> int:
    """Total relation-variable cells of the translated sentence."""
    sentence = translate(f, scope)
    return sum(size**arity for _, arity in sentence.relation_vars)


def random_checkable_instance(
    rng: random.Random,
    *,
    max_size: int = 3,
    depth: int = 3,
    max_bits: int = 12,
    max_cost: int = 60_000,
    relations: dict[str, int] | None = None,
):
    """(structure, team, formula) triple cheap enough for both routes.

    Rejection-samples until the second-order translation fits in
    ``max_bits`` relation cells and the worst-case team evaluation stays
    under ``max_cost``.
    """
    while True:
        size = rng.randint(2, max_size)
        scope = ("x", "y") if size == 2 else ("x",)
        arities = relations if relations is not None else {"R": 2}
        structure = random_structure(rng, size, arities)
        team = random_team(rng, size, scope, max_rows=min(4, size ** len(scope)))
        formula = random_formula(
            rng, list(scope), depth, relations=arities, quantifier_pool=("q1",)
        )
        if eso_bits(formula, scope, size) > max_bits:
            continue
        if estimate_eval_cost(formula, len(team), size) > max_cost:
            continue
        return structure, team, formula


def random_dep_statements(rng: random.Random, universe, max_atoms: int,
                          max_len: int = 2):
    count = rng.randint(0, max_atoms)
    out = []
    for _ in range(count):
        out.append(
            DepAtom(
                _random_tuple(rng, universe, max_len),
                _random_tuple(rng, universe, max_len, False),
            )
        )
    return tuple(out)


def random_ind_statements(rng: random.Random, universe, max_atoms: int):
    universe = list(universe)
    count = rng.randint(0, max_atoms)
    out = []
    for _ in range(count):
        out.append(IndAtom((rng.choice(universe),), (), (rng.choice(universe),)))
    return tuple(out)
