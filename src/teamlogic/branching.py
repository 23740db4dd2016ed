"""Skolem-function semantics for two-row branching prefixes.

A branching prefix ``branch {forall x exists y ; forall u exists v}`` is
satisfied at an assignment when there are unary functions f and g with
the matrix true at (a, f(a), b, g(b)) for every pair (a, b): each
existential choice may depend only on its own row's universal.  This is
cross-checked against the compositional rewrite through an independence
atom, and the module also probes the strength hierarchy of the conditions
that make that rewrite work.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import Assignment, Structure, Team
from .errors import LogicError, ScopeError, SearchSpaceError
from .firstorder import compile_formula
from .semantics import evaluate, satisfies_dep, satisfies_ind
from .syntax import And, DepAtom, Henkin, IndAtom, desugar_henkin, free_vars, is_first_order

DEFAULT_SKOLEM_DOMAIN_CAP = 5


def henkin_eval_skolem(
    structure: Structure,
    assignment: Assignment,
    h: Henkin,
    max_domain: int = DEFAULT_SKOLEM_DOMAIN_CAP,
) -> bool:
    """Exhaustive search over the two independent choice functions."""
    if max_domain < 0:
        raise LogicError("the domain bound is negative")
    if not isinstance(h, Henkin):
        raise LogicError("expected a branching-prefix formula")
    (x, y), (u, v) = h.rows
    if not is_first_order(h.matrix):
        raise LogicError("the branching matrix must be first-order")
    bound = {x, y, u, v}
    missing = [w for w in free_vars(h.matrix) if w not in bound and w not in assignment.scope]
    if missing:
        raise ScopeError(f"free variable {missing[0]!r} is not covered by the assignment")
    size = structure.size
    if size > max_domain:
        raise SearchSpaceError(
            f"Skolem search over a domain of {size} exceeds the cap of {max_domain}"
        )
    domain = tuple(structure.domain_ids())
    matrix = compile_formula(h.matrix)
    env = assignment.as_dict()

    def g_exists_for(f_table) -> bool:
        # g is found pointwise: each b needs one c that works for every a.
        for b in domain:
            env[u] = b
            for c in domain:
                env[v] = c
                ok = True
                for a in domain:
                    env[x] = a
                    env[y] = f_table[a]
                    if not matrix(domain, structure.relations, structure.constants, env):
                        ok = False
                        break
                if ok:
                    break
            else:
                return False
        return True

    try:
        for f_table in itertools.product(domain, repeat=size):
            if g_exists_for(f_table):
                return True
        return False
    finally:
        for name in (x, y, u, v):
            env.pop(name, None)


@dataclass(frozen=True)
class BranchingAgreementReport:
    """Both verdicts for one branching formula at one assignment."""

    skolem: bool
    compositional: bool

    @property
    def agree(self) -> bool:
        return self.skolem == self.compositional


def check_branching_equivalence(
    structure: Structure,
    assignment: Assignment,
    h: Henkin,
    mode: str = "lax",
    max_domain: int = DEFAULT_SKOLEM_DOMAIN_CAP,
) -> BranchingAgreementReport:
    """Compare Skolem semantics against the compositional rewrite on {s}."""
    skolem = henkin_eval_skolem(structure, assignment, h, max_domain=max_domain)
    team = Team(assignment.scope, [assignment.values])
    compositional = evaluate(structure, team, desugar_henkin(h), mode=mode)
    return BranchingAgreementReport(skolem, compositional)


@dataclass(frozen=True)
class KeyImplicationReport:
    premise: bool
    conclusion: bool

    @property
    def respected(self) -> bool:
        return (not self.premise) or self.conclusion


def key_implication_check(team: Team) -> KeyImplicationReport:
    """Check one team against the implication that grounds the rewrite:

    if x and u jointly fix v, and v is independent of x given u, then u
    alone fixes v.  The rewrite applies it with x read as the pair (x, y)
    of the first row.
    """
    for name in ("x", "u", "v"):
        if name not in team.scope:
            raise ScopeError(f"team scope must contain {name!r}")
    premise = satisfies_dep(team, ("x", "u"), ("v",)) and satisfies_ind(
        team, ("v",), ("u",), ("x",)
    )
    conclusion = satisfies_dep(team, ("u",), ("v",))
    return KeyImplicationReport(premise, conclusion)


@dataclass(frozen=True)
class WeakConditionCounterexample:
    team: Team
    structure: Structure
    domain_size: int
    note: str


def find_weak_condition_counterexample(
    domain_size: int, max_rows: int, strong: bool = False
) -> WeakConditionCounterexample | None:
    """Search for a team separating the weak variant of the key implication.

    Wanted: x and u jointly fix v, v is independent of x outright (or
    given u, under ``strong``), yet u alone does not fix v.  Only teams
    where (x, u) fixes v can qualify, so the search enumerates exactly the
    partial-function teams (x, u) -> v, by domain size starting at two,
    then by row count.  The strong variant is expected to find nothing.
    """
    if domain_size < 2:
        return None
    scope = ("x", "u", "v")
    condition = ("u",) if strong else ()
    for size in range(2, domain_size + 1):
        structure = Structure.plain(size)
        cells = list(itertools.product(range(size), repeat=2))
        for k in range(1, min(max_rows, len(cells)) + 1):
            for chosen in itertools.combinations(cells, k):
                for values in itertools.product(range(size), repeat=k):
                    team = Team(
                        scope, [(cx, cu, cv) for (cx, cu), cv in zip(chosen, values)]
                    )
                    if satisfies_dep(team, ("u",), ("v",)):
                        continue
                    if not satisfies_ind(team, ("v",), condition, ("x",)):
                        continue
                    # Independent confirmation through the formula evaluator.
                    wanted = And(
                        DepAtom(("x", "u"), ("v",)), IndAtom(("v",), condition, ("x",))
                    )
                    if not evaluate(structure, team, wanted) or evaluate(
                        structure, team, DepAtom(("u",), ("v",))
                    ):
                        raise RuntimeError(
                            "weak-condition search produced a team that fails its re-check"
                        )
                    note = f"found over a {size}-element domain"
                    if size < domain_size:
                        note += f" (smaller than the requested bound of {domain_size})"
                    return WeakConditionCounterexample(team, structure, size, note)
    return None
