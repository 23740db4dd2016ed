"""Syntactic and semantic entailment between dependency atoms.

Three syntactic engines live here: the closure algorithm for functional
dependence atoms, the two-rule decision procedure for unconditional
single-variable independence atoms, and a forward-chaining closure over
the full mixed rule inventory (sound, not claimed complete).  Each derived
atom carries a trace whose steps can be re-checked against the rule
registry.

The semantic side searches for countermodel teams.  Atom satisfaction only
depends on the per-variable equality pattern of a team's rows, so the
bounded-row search enumerates teams in pattern-canonical form (values
renamed per column to first-occurrence indices), which keeps the search
exhaustive for its row bound at any domain size.  Randomized sampling can
be layered on top for larger teams.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass

from .core import TEAM_ENUMERATION_CAP, Structure, Team, VarTuple, subsets, tuple_intersection
from .errors import LogicError, SearchSpaceError
from .semantics import satisfies_dep, satisfies_ind
from .syntax import DepAtom, IndAtom

# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceStep:
    rule: str
    premises: tuple[int, ...]
    atom: DepAtom | IndAtom


@dataclass(frozen=True)
class DerivationTrace:
    steps: tuple[TraceStep, ...]

    def conclusion(self) -> DepAtom | IndAtom:
        return self.steps[-1].atom

    def verify(self, axioms) -> bool:
        """Re-check every step against the rule registry."""
        axiom_set = {a.canonical() for a in axioms}
        for i, step in enumerate(self.steps):
            if any(p >= i for p in step.premises):
                return False
            checker = RULE_CHECKERS.get(step.rule)
            if checker is None:
                return False
            if step.rule == "premise":
                if step.atom.canonical() not in axiom_set:
                    return False
                continue
            premises = tuple(self.steps[p].atom for p in step.premises)
            if not checker(premises, step.atom):
                return False
        return True

    def render(self) -> str:
        lines = []
        for i, step in enumerate(self.steps):
            src = f" from {','.join(str(p + 1) for p in step.premises)}" if step.premises else ""
            lines.append(f"{i + 1}. [{step.rule}]{src} {step.atom}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Derivation:
    derived: bool
    trace: DerivationTrace | None

    def __bool__(self):
        return self.derived


def _cset(t) -> frozenset[str]:
    return frozenset(t)


def _check_dep_reflexivity(ps, c):
    return not ps and isinstance(c, DepAtom) and _cset(c.determined) == _cset(c.determiner)


def _check_armstrong_augmentation(ps, c):
    (p,) = ps
    return (
        isinstance(p, DepAtom)
        and isinstance(c, DepAtom)
        and _cset(p.determiner) <= _cset(c.determiner)
        and _cset(c.determined) == _cset(p.determined)
    )


def _check_dep_transitivity(ps, c):
    p1, p2 = ps
    return (
        isinstance(p1, DepAtom)
        and isinstance(p2, DepAtom)
        and isinstance(c, DepAtom)
        and _cset(p1.determined) == _cset(p2.determiner)
        and _cset(c.determiner) == _cset(p1.determiner)
        and _cset(c.determined) == _cset(p2.determined)
    )


def _check_dep_union(ps, c):
    p1, p2 = ps
    return (
        isinstance(p1, DepAtom)
        and isinstance(p2, DepAtom)
        and isinstance(c, DepAtom)
        and _cset(p1.determiner) == _cset(p2.determiner) == _cset(c.determiner)
        and _cset(c.determined) == _cset(p1.determined) | _cset(p2.determined)
    )


def _check_dep_projection(ps, c):
    (p,) = ps
    return (
        isinstance(p, DepAtom)
        and isinstance(c, DepAtom)
        and _cset(c.determiner) == _cset(p.determiner)
        and _cset(c.determined) <= _cset(p.determined)
    )


def _check_reflexivity(ps, c):
    return not ps and isinstance(c, IndAtom) and _cset(c.left) == _cset(c.condition)


def _check_symmetry(ps, c):
    (p,) = ps
    return (
        isinstance(p, IndAtom)
        and isinstance(c, IndAtom)
        and _cset(c.left) == _cset(p.right)
        and _cset(c.condition) == _cset(p.condition)
        and _cset(c.right) == _cset(p.left)
    )


def _check_weakening(ps, c):
    (p,) = ps
    return (
        isinstance(p, IndAtom)
        and isinstance(c, IndAtom)
        and _cset(c.condition) == _cset(p.condition)
        and _cset(c.left) <= _cset(p.left)
        and _cset(c.right) <= _cset(p.right)
    )


def _check_permutation(ps, c):
    (p,) = ps
    return type(p) is type(c) and p.canonical() == c.canonical()


def _check_fixed_parameter(ps, c):
    (p,) = ps
    return (
        isinstance(p, IndAtom)
        and isinstance(c, IndAtom)
        and _cset(c.condition) == _cset(p.condition)
        and _cset(c.left) == _cset(p.right) | _cset(p.condition)
        and _cset(c.right) == _cset(p.left) | _cset(p.condition)
    )


def _check_first_transitivity(ps, c):
    p1, p2 = ps
    return (
        isinstance(p1, IndAtom)
        and isinstance(p2, IndAtom)
        and isinstance(c, IndAtom)
        and _cset(p1.right) == _cset(p2.right) == _cset(c.right)
        and _cset(p2.condition) == _cset(p1.condition) | _cset(p1.left)
        and _cset(c.condition) == _cset(p1.condition)
        and _cset(c.left) == _cset(p2.left)
    )


def _check_second_transitivity(ps, c):
    p1, p2 = ps
    return (
        isinstance(p1, IndAtom)
        and isinstance(p2, IndAtom)
        and isinstance(c, IndAtom)
        and _cset(p1.left) == _cset(p1.right)
        and _cset(p2.condition) == _cset(p1.left)
        and _cset(p1.condition) <= _cset(p2.left)
        and _cset(p1.condition) | _cset(c.left) == _cset(p2.left)
        and _cset(c.condition) == _cset(p1.condition)
        and _cset(c.right) == _cset(p2.right)
    )


def _check_constancy(ps, c):
    (p,) = ps
    return (
        isinstance(p, IndAtom)
        and isinstance(c, IndAtom)
        and _cset(p.left) == _cset(p.right)
        and _cset(c.left) == _cset(p.left)
        and _cset(c.condition) == _cset(p.condition)
    )


def _check_dep_to_ind(ps, c):
    (p,) = ps
    return (
        isinstance(p, DepAtom)
        and isinstance(c, IndAtom)
        and _cset(c.condition) == _cset(p.determiner)
        and _cset(c.left) == _cset(p.determined)
    )


def _check_ind_to_dep(ps, c):
    (p,) = ps
    return (
        isinstance(p, IndAtom)
        and isinstance(c, DepAtom)
        and _cset(c.determiner) == _cset(p.condition)
        and _cset(c.determined) == _cset(p.left) & _cset(p.right)
    )


RULE_CHECKERS = {
    "premise": lambda ps, c: not ps,
    "dep-reflexivity": _check_dep_reflexivity,
    "armstrong-augmentation": _check_armstrong_augmentation,
    "dep-transitivity": _check_dep_transitivity,
    "dep-union": _check_dep_union,
    "dep-projection": _check_dep_projection,
    "reflexivity": _check_reflexivity,
    "symmetry": _check_symmetry,
    "weakening": _check_weakening,
    "permutation": _check_permutation,
    "fixed-parameter": _check_fixed_parameter,
    "first-transitivity": _check_first_transitivity,
    "second-transitivity": _check_second_transitivity,
    "constancy": _check_constancy,
    "dep-to-ind": _check_dep_to_ind,
    "ind-to-dep": _check_ind_to_dep,
}

#: The forward-chaining inventory used by :func:`rule_closure`.
CLOSURE_RULES = (
    "reflexivity",
    "symmetry",
    "weakening",
    "permutation",
    "fixed-parameter",
    "first-transitivity",
    "second-transitivity",
    "constancy",
    "dep-to-ind",
    "ind-to-dep",
    "armstrong-augmentation",
)


# ---------------------------------------------------------------------------
# Functional-dependence engine
# ---------------------------------------------------------------------------


def _require_dep(atoms):
    for a in atoms:
        if not isinstance(a, DepAtom):
            raise LogicError(f"expected dep atoms only, found {a}")


def armstrong_closure(premises, determiner, universe=None) -> frozenset[str]:
    """Least variable set containing the determiner and closed under the premises."""
    premises = tuple(premises)
    _require_dep(premises)
    if universe is not None:
        pool = set(universe)
        for a in premises:
            if not a.variables() <= pool:
                raise LogicError(f"atom {a} mentions variables outside the universe")
        if not set(determiner) <= pool:
            raise LogicError("determiner mentions variables outside the universe")
    closure = set(determiner)
    changed = True
    while changed:
        changed = False
        for a in premises:
            if set(a.determiner) <= closure and not set(a.determined) <= closure:
                closure |= set(a.determined)
                changed = True
    return frozenset(closure)


def armstrong_derives(premises, goal: DepAtom, universe=None) -> Derivation:
    """Decide dep-atom entailment by the closure test, with a replayable trace."""
    premises = tuple(premises)
    _require_dep(premises + (goal,))
    steps: list[TraceStep] = []
    step_of: dict = {}

    def add(rule, prem_idx, atom) -> int:
        atom = atom.canonical()
        if (rule, atom) not in step_of:
            steps.append(TraceStep(rule, tuple(prem_idx), atom))
            step_of[(rule, atom)] = len(steps) - 1
        return step_of[(rule, atom)]

    start = tuple(sorted(set(goal.determiner)))
    current = set(start)
    current_idx = add("dep-reflexivity", (), DepAtom(start, start))
    changed = True
    while changed:
        changed = False
        for p in premises:
            if set(p.determiner) <= current and not set(p.determined) <= current:
                cur_tuple = tuple(sorted(current))
                i_p = add("premise", (), p)
                i_aug = add(
                    "armstrong-augmentation", (i_p,), DepAtom(cur_tuple, p.determined)
                )
                i_tr = add(
                    "dep-transitivity",
                    (current_idx, i_aug),
                    DepAtom(start, p.determined),
                )
                current |= set(p.determined)
                current_idx = add(
                    "dep-union",
                    (current_idx, i_tr),
                    DepAtom(start, tuple(sorted(current))),
                )
                changed = True
    if not set(goal.determined) <= current:
        return Derivation(False, None)
    add("dep-projection", (current_idx,), goal.canonical())
    return Derivation(True, DerivationTrace(tuple(steps)))


def counterexample_armstrong(premises, goal: DepAtom, universe=None) -> Team | None:
    """The two-row countermodel for a non-derivable dep goal, or None.

    Closure variables take the value 0 in both rows; every other variable
    takes 0 in one row and 1 in the other.  The team lives over the
    two-element domain of :func:`armstrong_counterexample_domain`.
    """
    premises = tuple(premises)
    if armstrong_derives(premises, goal):
        return None
    variables = set(goal.variables())
    for a in premises:
        variables |= a.variables()
    if universe is not None:
        variables |= set(universe)
    scope = tuple(sorted(variables))
    closure = armstrong_closure(premises, goal.determiner)
    row_low = tuple(0 for _ in scope)
    row_high = tuple(0 if v in closure else 1 for v in scope)
    team = Team(scope, [row_low, row_high])
    for a in premises:
        if not satisfies_dep(team, a.determiner, a.determined):
            raise RuntimeError(f"constructed team fails premise {a}")
    if satisfies_dep(team, goal.determiner, goal.determined):
        raise RuntimeError("constructed team satisfies the goal it should refute")
    return team


def armstrong_counterexample_domain() -> Structure:
    return Structure.plain(2)


# ---------------------------------------------------------------------------
# Unconditional independence engine
# ---------------------------------------------------------------------------


def _require_unconditional(atoms):
    for a in atoms:
        if not isinstance(a, IndAtom) or not a.is_unconditional_single():
            raise LogicError(
                "this engine handles unconditional single-variable independence atoms only"
            )


def independence_derives(premises, goal: IndAtom) -> Derivation:
    """Decide unconditional independence entailment by symmetry and constancy."""
    premises = tuple(premises)
    _require_unconditional(premises + (goal,))
    y, x = goal.left[0], goal.right[0]
    canon = {p.canonical(): p for p in premises}

    def atom(u, v):
        return IndAtom((u,), (), (v,)).canonical()

    steps: list[TraceStep] = []
    if atom(y, x) in canon:
        steps.append(TraceStep("premise", (), atom(y, x)))
        return Derivation(True, DerivationTrace(tuple(steps)))
    if atom(x, y) in canon:
        steps.append(TraceStep("premise", (), atom(x, y)))
        steps.append(TraceStep("symmetry", (0,), atom(y, x)))
        return Derivation(True, DerivationTrace(tuple(steps)))
    if atom(y, y) in canon:
        steps.append(TraceStep("premise", (), atom(y, y)))
        steps.append(TraceStep("constancy", (0,), atom(y, x)))
        return Derivation(True, DerivationTrace(tuple(steps)))
    if atom(x, x) in canon:
        steps.append(TraceStep("premise", (), atom(x, x)))
        steps.append(TraceStep("constancy", (0,), atom(x, y)))
        steps.append(TraceStep("symmetry", (1,), atom(y, x)))
        return Derivation(True, DerivationTrace(tuple(steps)))
    return Derivation(False, None)


def independence_counterexample_domain(premises, goal=None) -> Structure:
    """Domain for the two-block construction: the self-independent variables
    of the premise set plus two fresh elements named '0' and '1'."""
    premises = tuple(premises)
    _require_unconditional(premises)
    pinned = sorted({a.left[0] for a in premises if a.left[0] == a.right[0]})
    return Structure(tuple(pinned) + ("0", "1"))


def counterexample_independence(premises, goal: IndAtom, universe=None) -> Team | None:
    """The two-block countermodel for a non-derivable unconditional goal.

    Self-independent variables of the premise set are pinned to their own
    domain element in every row; the goal's two variables share the block
    value (0 or 1); all remaining variables range over the whole domain
    within each block.  Verified against the premises and the goal before
    being returned.
    """
    premises = tuple(premises)
    if independence_derives(premises, goal):
        return None
    y, x = goal.left[0], goal.right[0]
    structure = independence_counterexample_domain(premises)
    pinned = structure.elements[:-2]
    variables = {y, x}
    for a in premises:
        variables |= a.variables()
    if universe is not None:
        variables |= set(universe)
    scope = tuple(sorted(variables))
    id0 = structure.id_of("0")
    id1 = structure.id_of("1")
    pinned_ids = {v: structure.id_of(v) for v in pinned}
    free = [v for v in scope if v not in pinned_ids and v not in (x, y)]
    domain = tuple(structure.domain_ids())

    rows = []
    for block in (id0, id1):
        fixed = dict(pinned_ids)
        fixed[x] = block
        fixed[y] = block
        for combo in itertools.product(domain, repeat=len(free)):
            values = dict(fixed)
            values.update(zip(free, combo))
            rows.append(tuple(values[v] for v in scope))
    team = Team(scope, rows)
    for a in premises:
        if not satisfies_ind(team, a.left, a.condition, a.right):
            raise RuntimeError(f"constructed team fails premise {a}")
    if satisfies_ind(team, goal.left, goal.condition, goal.right):
        raise RuntimeError("constructed team satisfies the goal it should refute")
    return team


# ---------------------------------------------------------------------------
# Forward chaining over the mixed rule inventory
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosureResult:
    atoms: frozenset[DepAtom | IndAtom]
    trace: DerivationTrace
    truncated: bool

    def derivation_of(self, atom: DepAtom | IndAtom) -> DerivationTrace | None:
        """Backward slice of the trace ending at the given atom."""
        target = atom.canonical()
        index = {step.atom: i for i, step in enumerate(self.trace.steps)}
        if target not in index:
            return None
        keep: set[int] = set()
        stack = [index[target]]
        while stack:
            i = stack.pop()
            if i in keep:
                continue
            keep.add(i)
            stack.extend(self.trace.steps[i].premises)
        order = sorted(keep)
        renumber = {old: new for new, old in enumerate(order)}
        steps = tuple(
            TraceStep(
                self.trace.steps[i].rule,
                tuple(renumber[p] for p in self.trace.steps[i].premises),
                self.trace.steps[i].atom,
            )
            for i in order
        )
        return DerivationTrace(steps)


def rule_closure(premises, max_steps: int = 50_000, universe=None) -> ClosureResult:
    """Forward-chaining closure of mixed dep/ind atoms over a finite universe.

    Generated tuples are restricted to subsets of the universe and kept in
    sorted-set canonical form; the step budget cuts the closure off and
    flags the result as truncated.  Sound but not claimed complete.
    """
    premises = tuple(premises)
    for a in premises:
        if not isinstance(a, (DepAtom, IndAtom)):
            raise LogicError(f"not a dep or ind atom: {a!r}")
    if universe is None:
        names: set[str] = set()
        for a in premises:
            names |= a.variables()
        universe = tuple(sorted(names))
    else:
        universe = tuple(sorted(set(universe)))
        for a in premises:
            if not a.variables() <= set(universe):
                raise LogicError(f"atom {a} mentions variables outside the universe")
    universe_subsets = tuple(subsets(universe))

    steps: list[TraceStep] = []
    known: dict[DepAtom | IndAtom, int] = {}
    queue: deque[int] = deque()
    truncated = False

    def add(rule, prem_idx, atom) -> None:
        nonlocal truncated
        atom = atom.canonical()
        if atom in known:
            return
        if len(steps) >= max_steps:
            truncated = True
            return
        steps.append(TraceStep(rule, tuple(prem_idx), atom))
        known[atom] = len(steps) - 1
        queue.append(len(steps) - 1)

    for p in premises:
        add("premise", (), p)
    for a in universe_subsets:
        for b in universe_subsets:
            add("reflexivity", (), IndAtom(a, a, b))

    def unary(i: int, atom: DepAtom | IndAtom):
        if isinstance(atom, IndAtom):
            add("symmetry", (i,), IndAtom(atom.right, atom.condition, atom.left))
            add(
                "fixed-parameter",
                (i,),
                IndAtom(
                    tuple(sorted(set(atom.right) | set(atom.condition))),
                    atom.condition,
                    tuple(sorted(set(atom.left) | set(atom.condition))),
                ),
            )
            for l_sub in subsets(atom.left):
                for r_sub in subsets(atom.right):
                    add("weakening", (i,), IndAtom(l_sub, atom.condition, r_sub))
            if set(atom.left) == set(atom.right):
                for z in universe_subsets:
                    add("constancy", (i,), IndAtom(atom.left, atom.condition, z))
            add(
                "ind-to-dep",
                (i,),
                DepAtom(atom.condition, tuple_intersection(atom.left, atom.right)),
            )
        else:
            for z in universe_subsets:
                add("dep-to-ind", (i,), IndAtom(atom.determined, atom.determiner, z))
            extra = tuple(v for v in universe if v not in set(atom.determiner))
            for more in subsets(extra):
                if more:
                    add(
                        "armstrong-augmentation",
                        (i,),
                        DepAtom(
                            tuple(sorted(set(atom.determiner) | set(more))), atom.determined
                        ),
                    )

    def binary(i: int, atom: DepAtom | IndAtom, j: int, other: DepAtom | IndAtom):
        if not (isinstance(atom, IndAtom) and isinstance(other, IndAtom)):
            return
        # first transitivity: atom as the inner premise, other as the outer.
        if (
            set(other.condition) == set(atom.condition) | set(atom.left)
            and set(other.right) == set(atom.right)
        ):
            add("first-transitivity", (i, j), IndAtom(other.left, atom.condition, atom.right))
        # second transitivity: atom must be of the left-equals-right shape.
        if (
            set(atom.left) == set(atom.right)
            and set(other.condition) == set(atom.left)
            and set(atom.condition) <= set(other.left)
        ):
            add("second-transitivity", (i, j), IndAtom(other.left, atom.condition, other.right))

    while queue and not truncated:
        i = queue.popleft()
        atom = steps[i].atom
        unary(i, atom)
        snapshot = list(known.items())
        for other, j in snapshot:
            binary(i, atom, j, other)
            binary(j, other, i, atom)

    return ClosureResult(frozenset(known), DerivationTrace(tuple(steps)), truncated)


# ---------------------------------------------------------------------------
# Semantic entailment search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchBound:
    domain_sizes: tuple[int, ...]
    max_rows: int
    samples: int
    exact: bool


@dataclass(frozen=True)
class EntailmentVerdict:
    entailed: bool
    witness: Team | None
    witness_structure: Structure | None
    bound: SearchBound

    @property
    def exact(self) -> bool:
        return self.bound.exact


#: Largest team drawn by the randomized sampling of :func:`semantic_entails`.
SAMPLE_MAX_ROWS = 6


@dataclass(frozen=True)
class EntailmentConfig:
    domain_sizes: tuple[int, ...] | None = None
    max_rows: int = 3
    samples: int = 2000
    seed: int = 0


def _atom_holds(team: Team, atom: DepAtom | IndAtom) -> bool:
    if isinstance(atom, DepAtom):
        return satisfies_dep(team, atom.determiner, atom.determined)
    return satisfies_ind(team, atom.left, atom.condition, atom.right)


def _column_patterns(k: int, size: int):
    """Restricted-growth strings of length k with at most `size` classes."""
    if k == 0:
        return [()]
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int], used: int):
        if len(prefix) == k:
            out.append(tuple(prefix))
            return
        for v in range(min(used + 1, size - 1) + 1):
            prefix.append(v)
            extend(prefix, max(used, v))
            prefix.pop()

    extend([0], 0)
    return out


def _pattern_count(k: int, size: int) -> int:
    """len(_column_patterns(k, size)) for k >= 2: the ways to split k rows
    into at most `size` value classes (Stirling numbers of the second kind)."""
    counts = [1] + [0] * min(size, k)  # counts[j]: splits into j classes so far
    for _ in range(k):
        counts = [0] + [j * counts[j] + counts[j - 1] for j in range(1, len(counts))]
    return sum(counts)


def _canonical_teams(variables: VarTuple, size: int, max_rows: int):
    """Teams with <= max_rows rows, canonical up to per-column value renaming.

    Teams with fewer than two rows satisfy every atom, so the search
    starts at two rows.
    """
    for k in range(2, max_rows + 1):
        if k > size ** len(variables):
            break
        columns = _column_patterns(k, size)
        for combo in itertools.product(columns, repeat=len(variables)):
            rows = list(zip(*combo)) if variables else [()] * k
            if len(set(rows)) != k:
                continue
            yield Team(variables, rows)


def fragment_of(premises, goal) -> str:
    """Which engine decides the entailment: "dep", "ind-unconditional" or "mixed"."""
    atoms = tuple(premises) + (goal,)
    if all(isinstance(a, DepAtom) for a in atoms):
        return "dep"
    if all(
        isinstance(a, IndAtom) and a.is_unconditional_single() for a in atoms
    ):
        return "ind-unconditional"
    return "mixed"


def semantic_entails(premises, goal: DepAtom | IndAtom, config: EntailmentConfig | None = None) -> EntailmentVerdict:
    """Search for a team satisfying the premises and falsifying the goal.

    A found countermodel is re-checked before it is reported.  The verdict
    is exact for the two fragments whose entailment has a small-team
    countermodel guarantee (pure dep atoms; unconditional single-variable
    independence atoms), where a goal not entailed fails on a two-row team;
    otherwise it means "entailed up to the bound", and random teams are
    sampled after the exhaustive search.
    Teams of fewer than two rows satisfy every atom, so a bound that admits
    no team of two rows is rejected rather than reported as entailed.
    """
    premises = tuple(premises)
    cfg = config or EntailmentConfig()
    variables: set[str] = set(goal.variables())
    for a in premises:
        variables |= a.variables()
    scope = tuple(sorted(variables))
    sizes = cfg.domain_sizes or (2, len(scope) + 2)
    if not any(s >= 2 for s in sizes):
        raise LogicError("vacuous search: no domain size is at least 2")
    if cfg.samples < 0:
        raise LogicError("the sample count is negative")
    if cfg.max_rows < 2 and not cfg.samples:
        raise LogicError("vacuous search: rows are bounded below 2 and there are no samples")
    teams = 0  # what _canonical_teams would yield, counted as enumerate_teams does
    for size in sizes:
        for k in range(2, min(cfg.max_rows, size ** len(scope)) + 1):
            teams += _pattern_count(k, size) ** len(scope)
            if teams > TEAM_ENUMERATION_CAP:
                raise SearchSpaceError(
                    f"search space too large: over {TEAM_ENUMERATION_CAP} teams to enumerate"
                )
    exact = fragment_of(premises, goal) in ("dep", "ind-unconditional") and cfg.max_rows >= 2
    bound = SearchBound(tuple(sizes), cfg.max_rows, cfg.samples, exact)

    def verdict_for(team: Team, size: int) -> EntailmentVerdict:
        if any(not _atom_holds(team, a) for a in premises) or _atom_holds(team, goal):
            raise RuntimeError("countermodel failed its re-check")
        return EntailmentVerdict(False, team, Structure.plain(size), bound)

    for size in sizes:
        for team in _canonical_teams(scope, size, cfg.max_rows):
            if all(_atom_holds(team, a) for a in premises) and not _atom_holds(team, goal):
                return verdict_for(team, size)
    if cfg.samples and not exact:
        rng = random.Random(cfg.seed)
        for size in sizes:
            space = [tuple(r) for r in itertools.product(range(size), repeat=len(scope))]
            if len(space) < 2:
                continue
            for _ in range(cfg.samples):
                k = rng.randint(2, min(SAMPLE_MAX_ROWS, len(space)))
                team = Team(scope, rng.sample(space, k))
                if all(_atom_holds(team, a) for a in premises) and not _atom_holds(team, goal):
                    return verdict_for(team, size)
    return EntailmentVerdict(True, None, None, bound)
