"""Skolem-function semantics for two-row branching prefixes.

A branching prefix ``branch {forall x exists y ; forall u exists v}`` is
satisfied at an assignment when there are unary functions f and g with
the matrix true at (a, f(a), b, g(b)) for every pair (a, b): each
existential choice may depend only on its own row's universal.  The
assignment s comes as the one-row team {s}, on which the compositional
rewrite through an independence atom is the cross-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import Structure, Team
from .errors import LogicError, ScopeError, SearchSpaceError
from .firstorder import compile_formula
from .semantics import evaluate
from .syntax import Henkin, desugar_henkin, free_vars, is_first_order

DEFAULT_SKOLEM_DOMAIN_CAP = 5


def henkin_eval_skolem(
    structure: Structure,
    team: Team,
    h: Henkin,
    max_domain: int = DEFAULT_SKOLEM_DOMAIN_CAP,
) -> bool:
    """Exhaustive search over the two independent choice functions."""
    if len(team) != 1:
        raise LogicError(f"expected a one-row team, got {len(team)} rows")
    if max_domain < 0:
        raise LogicError("the domain bound is negative")
    if not isinstance(h, Henkin):
        raise LogicError("expected a branching-prefix formula")
    (x, y), (u, v) = h.rows
    if not is_first_order(h.matrix):
        raise LogicError("the branching matrix must be first-order")
    bound = {x, y, u, v}
    missing = [w for w in free_vars(h.matrix) if w not in bound and w not in team.scope]
    if missing:
        raise ScopeError(f"free variable {missing[0]!r} is not covered by the assignment")
    size = structure.size
    if size > max_domain:
        raise SearchSpaceError(
            f"Skolem search over a domain of {size} exceeds the cap of {max_domain}"
        )
    domain = tuple(structure.domain_ids())
    matrix = compile_formula(h.matrix)
    env = dict(zip(team.scope, team.rows[0]))

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

    for f_table in itertools.product(domain, repeat=size):
        if g_exists_for(f_table):
            return True
    return False


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
    team: Team,
    h: Henkin,
    mode: str = "lax",
    max_domain: int = DEFAULT_SKOLEM_DOMAIN_CAP,
) -> BranchingAgreementReport:
    """Compare Skolem semantics against the compositional rewrite on {s}."""
    skolem = henkin_eval_skolem(structure, team, h, max_domain=max_domain)
    compositional = evaluate(structure, team, desugar_henkin(h), mode=mode)
    return BranchingAgreementReport(skolem, compositional)
