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

import functools
import itertools
import operator
import random
from collections import defaultdict
from dataclasses import dataclass
from types import SimpleNamespace

from .core import Structure, Team, VarTuple, subsets
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
        """Re-check every step against the rule registry; an empty trace
        derives nothing and fails."""
        axiom_set = {a.canonical() for a in axioms}
        for i, step in enumerate(self.steps):
            checker = RULE_CHECKERS.get(step.rule)
            if checker is None or not all(0 <= p < i for p in step.premises):
                return False
            if step.rule == "premise" and step.atom.canonical() not in axiom_set:
                return False
            if not checker(tuple(self.steps[p].atom for p in step.premises), step.atom):
                return False
        return bool(self.steps)

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


def _views(atom) -> SimpleNamespace:
    """The atom's tuples as frozensets, under the atom's own field names."""
    return SimpleNamespace(**{name: frozenset(t) for name, t in vars(atom).items()})


def _rule(premise_kinds, conclusion_kind, relation):
    """A checker: the premise count and every atom kind must match before
    `relation` is called on the set views of the premises and conclusion."""
    kinds = (*premise_kinds, conclusion_kind)

    def check(premises, conclusion) -> bool:
        atoms = (*premises, conclusion)
        return (
            len(atoms) == len(kinds)
            and all(isinstance(a, k) for a, k in zip(atoms, kinds))
            and relation(*map(_views, atoms))
        )

    return check


_D, _I = DepAtom, IndAtom

RULE_CHECKERS = {
    "premise": lambda ps, c: not ps,
    "dep-reflexivity": _rule((), _D, lambda c: c.determined == c.determiner),
    "armstrong-augmentation": _rule(
        (_D,), _D, lambda p, c: p.determiner <= c.determiner and c.determined == p.determined
    ),
    "dep-transitivity": _rule((_D, _D), _D, lambda p, q, c: p.determined == q.determiner
                              and (c.determiner, c.determined) == (p.determiner, q.determined)),
    "dep-union": _rule((_D, _D), _D, lambda p, q, c: p.determiner == q.determiner == c.determiner
                       and c.determined == p.determined | q.determined),
    "dep-projection": _rule(
        (_D,), _D, lambda p, c: c.determiner == p.determiner and c.determined <= p.determined
    ),
    "reflexivity": _rule((), _I, lambda c: c.left == c.condition),
    "symmetry": _rule(
        (_I,), _I, lambda p, c: (c.left, c.condition, c.right) == (p.right, p.condition, p.left)
    ),
    "weakening": _rule((_I,), _I, lambda p, c: c.condition == p.condition
                       and c.left <= p.left and c.right <= p.right),
    # Equal set views of one kind: the field names tell the kinds apart.
    "permutation": _rule(((_D, _I),), (_D, _I), lambda p, c: p == c),
    "fixed-parameter": _rule((_I,), _I, lambda p, c: c.condition == p.condition
                             and c.left == p.right | p.condition
                             and c.right == p.left | p.condition),
    "first-transitivity": _rule((_I, _I), _I, lambda p, q, c: p.right == q.right == c.right
                                and q.condition == p.condition | p.left
                                and (c.condition, c.left) == (p.condition, q.left)),
    "second-transitivity": _rule((_I, _I), _I, lambda p, q, c: p.left == p.right == q.condition
                                 and p.condition <= q.left and p.condition | c.left == q.left
                                 and (c.condition, c.right) == (p.condition, q.right)),
    "constancy": _rule((_I,), _I, lambda p, c: p.left == p.right == c.left
                       and c.condition == p.condition),
    "dep-to-ind": _rule(
        (_D,), _I, lambda p, c: (c.condition, c.left) == (p.determiner, p.determined)
    ),
    "ind-to-dep": _rule(
        (_I,), _D, lambda p, c: c.determiner == p.condition and c.determined == p.left & p.right
    ),
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
# Fragments and scopes
# ---------------------------------------------------------------------------


def _fragment(atom) -> str:
    if isinstance(atom, DepAtom):
        return "dep"
    if isinstance(atom, IndAtom) and atom.is_unconditional_single():
        return "ind-unconditional"
    return "mixed"


def fragment_of(premises, goal) -> str:
    """Which engine decides the entailment: "dep", "ind-unconditional" or "mixed"."""
    fragments = {_fragment(a) for a in (*premises, goal)}
    return fragments.pop() if len(fragments) == 1 else "mixed"


def _require(fragment: str, atoms, message: str) -> None:
    """Raise `message` (formatted with the atom) at the first atom outside `fragment`."""
    for a in atoms:
        if _fragment(a) != fragment:
            raise LogicError(message.format(a))


def _scope(atoms, universe=None) -> VarTuple:
    """The sorted variables of the atoms and of the universe."""
    names = set(universe or ())
    for a in atoms:
        names |= a.variables()
    return tuple(sorted(names))


# ---------------------------------------------------------------------------
# Functional-dependence engine
# ---------------------------------------------------------------------------


def _require_dep(atoms):
    _require("dep", atoms, "expected dep atoms only, found {}")


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


def armstrong_derives(premises, goal: DepAtom) -> Derivation:
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
    _require_dep(premises + (goal,))
    closure = armstrong_closure(premises, goal.determiner)
    if set(goal.determined) <= closure:
        return None
    scope = _scope(premises + (goal,), universe)
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
    _require(
        "ind-unconditional",
        atoms,
        "this engine handles unconditional single-variable independence atoms only",
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


def independence_counterexample_domain(premises) -> Structure:
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
    scope = _scope(premises + (goal,), universe)
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


def rule_closure(premises, max_steps: int = 50_000, universe=None, goal=None) -> ClosureResult:
    """Forward-chaining closure of mixed dep/ind atoms over a finite universe.

    The closure works on integer bitmasks over the sorted universe, bit i
    standing for ``universe[i]``: an ind atom is the key (left, condition,
    right) and a dep atom the key (determiner, determined), so canonical
    form is free and the rules' set tests are int operations.  Atoms and
    trace steps are built only for keys not seen before.  Subsets come in
    :func:`core.subsets` order; the step budget cuts the closure off and
    flags the result as truncated.  Each dequeued ind atom is joined only
    with the atoms found so far that its join keys index, in ascending step
    order.  With a `goal`, whose variables join the default universe, the
    closure stops as soon as the goal is added.  Sound but not claimed
    complete.
    """
    premises = tuple(premises)
    targets = premises + (() if goal is None else (goal,))
    for a in targets:
        if not isinstance(a, (DepAtom, IndAtom)):
            raise LogicError(f"not a dep or ind atom: {a!r}")
    if max_steps < 0:
        raise LogicError("the step bound is negative")
    if universe is None:
        universe = _scope(targets)
    else:
        universe = _scope((), universe)
        for a in targets:
            if not a.variables() <= set(universe):
                raise LogicError(f"atom {a} mentions variables outside the universe")
    bit = {v: 1 << i for i, v in enumerate(universe)}
    full = (1 << len(universe)) - 1

    def key(atom) -> tuple[int, ...]:
        return tuple(sum({bit[v] for v in part}) for part in vars(atom).values())

    @functools.cache  # atoms share the tuple of each mask
    def names(mask: int) -> VarTuple:
        return tuple(v for v, b in bit.items() if b & mask)

    def submasks(mask: int):
        """The masks of core.subsets(the mask's variables), lazily."""
        return map(sum, subsets(b for b in bit.values() if b & mask))

    subs = functools.cache(lambda mask: tuple(submasks(mask)))

    def join_keys(L: int, C: int, R: int):
        """The keys that file an ind atom for the transitivity joins.

        Tag 0 is (condition | left, right), the inner premise of first
        transitivity; tag 1 is (condition, right), its outer premise; tag 2
        is the condition, the outer premise of second transitivity; tag 3 is
        left, for atoms with left = right, its inner premise.  An atom's
        partners are filed under its keys with the last bit of the tag flipped.
        """
        return ((0, C | L, R), (1, C, R), (2, C), *(((3, L),) if L == R else ()))

    goal = None if goal is None else key(goal)

    keys: list[tuple[int, ...]] = []  # the work list, in the order atoms are found
    steps: list[TraceStep] = []
    known: dict[tuple[int, ...], int] = {}
    index: dict[tuple, list[int]] = defaultdict(list)  # (tag, masks) -> ascending step indices
    truncated = False

    def add(rule, prem_idx, k) -> None:
        nonlocal truncated
        if k in known or goal in known:
            return
        if len(steps) >= max_steps:
            truncated = True
            return
        known[k] = len(steps)
        if len(k) == 3:
            for join_key in join_keys(*k):
                index[join_key].append(len(steps))
        keys.append(k)
        atom = (IndAtom if len(k) == 3 else DepAtom)(*map(names, k))
        steps.append(TraceStep(rule, prem_idx, atom))

    for p in premises:
        add("premise", (), key(p))
    # The seeding walks the 2^n subsets of the universe lazily, and the join
    # below lists them only if the seeding leaves it anything to do, so a
    # bounded closure over a wide universe stays small.
    for a, b in ((a, b) for a in submasks(full) for b in submasks(full)):
        if truncated or goal in known:
            break  # nothing more can be added
        add("reflexivity", (), (a, a, b))
    universe_subsets = () if truncated or goal in known else subs(full)

    def binary(i: int, a: tuple[int, ...], j: int, b: tuple[int, ...]):
        (aL, aC, aR), (bL, bC, bR) = a, b
        # first transitivity: a as the inner premise, b as the outer.
        if bC == aC | aL and bR == aR:
            add("first-transitivity", (i, j), (bL, aC, aR))
        # second transitivity: a must be of the left-equals-right shape.
        if aL == aR == bC and not aC & ~bL:
            add("second-transitivity", (i, j), (bL, aC, bR))

    i = 0
    while i < len(steps) and not truncated and goal not in known:
        k = keys[i]
        if len(k) == 3:
            L, C, R = k
            add("symmetry", (i,), (R, C, L))
            add("fixed-parameter", (i,), (R | C, C, L | C))
            for l_sub in subs(L):
                for r_sub in subs(R):
                    add("weakening", (i,), (l_sub, C, r_sub))
            if L == R:
                for z in universe_subsets:
                    add("constancy", (i,), (L, C, z))
            add("ind-to-dep", (i,), (C, L & R))
            # Partners are collected before a join adds atoms.
            partners = {j for tag, *key in join_keys(*k) for j in index.get((tag ^ 1, *key), ())}
            for j in sorted(partners):
                binary(i, k, j, keys[j])
                binary(j, keys[j], i, k)
        else:
            D, E = k
            for z in universe_subsets:
                add("dep-to-ind", (i,), (E, D, z))
            for more in subs(full & ~D):
                if more:
                    add("armstrong-augmentation", (i,), (D | more, E))
        i += 1

    return ClosureResult(frozenset(s.atom for s in steps), DerivationTrace(tuple(steps)), truncated)


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
    checks: int  # atom checks the search made, the countermodel's re-check excluded

    @property
    def exact(self) -> bool:
        return self.bound.exact


#: Largest team drawn by the randomized sampling of :func:`semantic_entails`.
SAMPLE_MAX_ROWS = 6

#: Most atom checks a :func:`semantic_entails` search may plan: every
#: canonical and sampled team times the atoms checked on it, plus one per
#: row of each row space that sampling lists.
ENTAILMENT_CHECK_CAP = 2**20


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


def _row_check(scope: VarTuple, atom: DepAtom | IndAtom):
    """The atom as a check over a list of distinct rows of the scope, in any
    order: the verdict of :func:`_atom_holds` on a ``Team`` of those rows,
    with the key positions resolved once instead of per team."""

    def key(variables):
        positions = [scope.index(v) for v in variables]
        return operator.itemgetter(*positions) if positions else lambda row: ()

    if isinstance(atom, DepAtom):
        det, val = key(atom.determiner), key(atom.determined)

        def holds(rows) -> bool:
            seen: dict = {}
            for r in rows:
                v = val(r)
                if seen.setdefault(det(r), v) != v:
                    return False
            return True

        return holds
    cond, left, right = key(atom.condition), key(atom.left), key(atom.right)

    def holds(rows) -> bool:
        groups: dict = {}
        for r in rows:
            lv, rv = left(r), right(r)
            ls, rs, pairs = groups.setdefault(cond(r), (set(), set(), set()))
            ls.add(lv)
            rs.add(rv)
            pairs.add((lv, rv))
        for ls, rs, pairs in groups.values():
            if len(pairs) != len(ls) * len(rs):
                return False
        return True

    return holds


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
    """The distinct rows of each team with <= max_rows rows, canonical up to
    per-column value renaming.

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
            yield rows


def semantic_entails(premises, goal: DepAtom | IndAtom, config: EntailmentConfig | None = None) -> EntailmentVerdict:
    """Search for a team satisfying the premises and falsifying the goal.

    A found countermodel is re-checked before it is reported.  The verdict
    is exact for the two fragments whose entailment has a small-team
    countermodel guarantee (pure dep atoms; unconditional single-variable
    independence atoms), where a goal not entailed fails on a two-row team;
    otherwise it means "entailed up to the bound", and random teams are
    sampled after the exhaustive search.
    Each premise and the goal are compiled once per search into a check
    over plain row lists (:func:`_row_check`); a ``Team`` is built only for
    the countermodel, whose re-check goes through ``satisfies_dep`` and
    ``satisfies_ind``.  The verdict counts the atom checks made.
    Teams of fewer than two rows satisfy every atom, so a bound that admits
    no team of two rows is rejected rather than reported as entailed.  A
    search that could make more than ``ENTAILMENT_CHECK_CAP`` atom checks
    is refused before it starts.
    """
    premises = tuple(premises)
    cfg = config or EntailmentConfig()
    scope = _scope(premises + (goal,))
    sizes = cfg.domain_sizes or (2, len(scope) + 2)
    if not any(s >= 2 for s in sizes):
        raise LogicError("vacuous search: no domain size is at least 2")
    if cfg.samples < 0:
        raise LogicError("the sample count is negative")
    if cfg.max_rows < 2 and not cfg.samples:
        raise LogicError("vacuous search: rows are bounded below 2 and there are no samples")
    exact = fragment_of(premises, goal) in ("dep", "ind-unconditional") and cfg.max_rows >= 2
    per_team = len(premises) + 1
    sampled = 0 if exact else cfg.samples

    def planned_checks():  # yielded piecewise, so a huge plan is refused early
        for size in sizes:
            space = max(size, 0) ** len(scope)
            if sampled and space >= 2:
                yield space + sampled * per_team
            for k in range(2, min(cfg.max_rows, space) + 1):
                yield _pattern_count(k, size) ** len(scope) * per_team

    if any(total > ENTAILMENT_CHECK_CAP for total in itertools.accumulate(planned_checks())):
        raise SearchSpaceError(
            f"search space too large: over {ENTAILMENT_CHECK_CAP} atom checks to run"
        )
    bound = SearchBound(tuple(sizes), cfg.max_rows, cfg.samples, exact)

    premise_checks = [_row_check(scope, a) for a in premises]
    goal_check = _row_check(scope, goal)
    checks = 0

    def refutes(rows) -> bool:
        """Do the rows satisfy every premise and falsify the goal?"""
        nonlocal checks
        for holds in premise_checks:
            checks += 1
            if not holds(rows):
                return False
        checks += 1
        return not goal_check(rows)

    def verdict_for(rows, size: int) -> EntailmentVerdict:
        team = Team(scope, rows)
        if any(not _atom_holds(team, a) for a in premises) or _atom_holds(team, goal):
            raise RuntimeError("countermodel failed its re-check")
        return EntailmentVerdict(False, team, Structure.plain(size), bound, checks)

    searched = 0  # the largest domain size searched so far
    for size in sizes:
        for rows in _canonical_teams(scope, size, cfg.max_rows):
            # A team using only values below an earlier size was checked there.
            if searched and scope and max(map(max, rows)) < searched:
                continue
            if refutes(rows):
                return verdict_for(rows, size)
        searched = max(searched, size)
    if sampled:
        rng = random.Random(cfg.seed)
        for size in sizes:
            space = [tuple(r) for r in itertools.product(range(size), repeat=len(scope))]
            if len(space) < 2:
                continue
            tried: set[int] = set()  # row-index bitmasks of the teams checked
            for _ in range(cfg.samples):
                k = rng.randint(2, min(SAMPLE_MAX_ROWS, len(space)))
                picked = rng.sample(range(len(space)), k)  # the draws of rng.sample(space, k)
                if k <= cfg.max_rows:  # its canonical form was checked above
                    continue
                mask = sum(1 << j for j in picked)
                if mask in tried:  # a team seen before was no countermodel
                    continue
                tried.add(mask)
                rows = [space[j] for j in picked]
                if refutes(rows):
                    return verdict_for(rows, size)
    return EntailmentVerdict(True, None, None, bound, checks)
