"""Syntactic and semantic entailment between dependency atoms.

Three syntactic engines live here: the closure algorithm for functional
dependence atoms, the two-rule decision procedure for unconditional
single-variable independence atoms, and a forward-chaining closure over
the full mixed rule inventory (sound, not claimed complete).  Each derived
atom carries a trace whose steps can be re-checked against the rule
registry.

The semantic side searches for countermodel teams.  Atom satisfaction only
depends on the per-variable equality pattern of a team's rows, so a team
of k rows needs at most k values per column and the domain size does not
matter.  The search enumerates teams of up to a row bound, fewest rows
first, in canonical form (rows increasing, values renamed per column to
first-occurrence indices), which makes it exhaustive for its bound.  It
uses no randomness.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import defaultdict
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterator

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


def _armstrong_firings(premises, closure: set[str]) -> Iterator[DepAtom]:
    """Grow `closure` in place to its fixpoint under the premises, yielding
    each premise that fires just before it adds its determined variables."""
    changed = True
    while changed:
        changed = False
        for a in premises:
            if set(a.determiner) <= closure and not set(a.determined) <= closure:
                yield a
                closure |= set(a.determined)
                changed = True


def armstrong_closure(premises, determiner) -> frozenset[str]:
    """Least variable set containing the determiner and closed under the premises."""
    premises = tuple(premises)
    _require_dep(premises)
    closure = set(determiner)
    for _ in _armstrong_firings(premises, closure):
        pass
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
    for p in _armstrong_firings(premises, current):
        i_p = add("premise", (), p)
        i_aug = add(
            "armstrong-augmentation", (i_p,), DepAtom(tuple(sorted(current)), p.determined)
        )
        i_tr = add("dep-transitivity", (current_idx, i_aug), DepAtom(start, p.determined))
        current_idx = add(
            "dep-union",
            (current_idx, i_tr),
            DepAtom(start, tuple(sorted(current.union(p.determined)))),
        )
    if not set(goal.determined) <= current:
        return Derivation(False, None)
    add("dep-projection", (current_idx,), goal.canonical())
    return Derivation(True, DerivationTrace(tuple(steps)))


def counterexample_armstrong(premises, goal: DepAtom) -> Team | None:
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
    scope = _scope(premises + (goal,))
    row_low = tuple(0 for _ in scope)
    row_high = tuple(0 if v in closure else 1 for v in scope)
    return _rechecked(Team(scope, [row_low, row_high]), premises, goal)


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


#: Most rows :func:`counterexample_independence` may build.
COUNTEREXAMPLE_ROW_CAP = 2**16


def counterexample_independence(premises, goal: IndAtom) -> Team | None:
    """The two-block countermodel for a non-derivable unconditional goal.

    Self-independent variables of the premise set are pinned to their own
    domain element in every row; the goal's two variables share the block
    value (0 or 1); all remaining variables range over the whole domain
    within each block.  Verified against the premises and the goal before
    being returned.  A team of more than ``COUNTEREXAMPLE_ROW_CAP`` rows is
    refused before it is built.
    """
    premises = tuple(premises)
    if independence_derives(premises, goal):
        return None
    y, x = goal.left[0], goal.right[0]
    structure = independence_counterexample_domain(premises)
    pinned = structure.elements[:-2]
    scope = _scope(premises + (goal,))
    id0 = structure.id_of("0")
    id1 = structure.id_of("1")
    pinned_ids = {v: structure.id_of(v) for v in pinned}
    free = [v for v in scope if v not in pinned_ids and v not in (x, y)]
    domain = tuple(structure.domain_ids())
    size = 2 * len(domain) ** len(free)
    if size > COUNTEREXAMPLE_ROW_CAP:
        raise SearchSpaceError(
            f"countermodel too large: {size} rows exceed the cap of {COUNTEREXAMPLE_ROW_CAP}"
        )

    rows = []
    for block in (id0, id1):
        fixed = dict(pinned_ids)
        fixed[x] = block
        fixed[y] = block
        for combo in itertools.product(domain, repeat=len(free)):
            values = dict(fixed)
            values.update(zip(free, combo))
            rows.append(tuple(values[v] for v in scope))
    return _rechecked(Team(scope, rows), premises, goal)


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


DEFAULT_MAX_STEPS = 50_000


def rule_closure(premises, max_steps: int = DEFAULT_MAX_STEPS, universe=None, goal=None) -> ClosureResult:
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
class EntailmentVerdict:
    entailed: bool
    witness: Team | None
    witness_structure: Structure | None
    max_rows: int  # the row bound searched
    exact: bool  # the bound covers every team: an exact fragment
    checks: int  # atom checks the search made, the countermodel's re-check excluded


#: Most atom checks a :func:`semantic_entails` search may plan: at most
#: Bell(k)^n canonical teams of k rows over n variables, each times the
#: atoms checked on it.
ENTAILMENT_CHECK_CAP = 2**20

#: The row bound :func:`semantic_entails` searches outside the exact
#: fragments when none is given, lowered until its plan fits the cap.
DEFAULT_MAX_ROWS = 4


def _atom_holds(team: Team, atom: DepAtom | IndAtom) -> bool:
    if isinstance(atom, DepAtom):
        return satisfies_dep(team, atom.determiner, atom.determined)
    return satisfies_ind(team, atom.left, atom.condition, atom.right)


def _rechecked(team: Team, premises, goal) -> Team:
    """The countermodel, once it satisfies every premise and falsifies the goal."""
    if not all(_atom_holds(team, a) for a in premises) or _atom_holds(team, goal):
        raise RuntimeError("countermodel failed its re-check")
    return team


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


def _pattern_count(k: int) -> int:
    """The Bell number B(k): the ways to split k rows into value classes
    (a sum of Stirling numbers of the second kind), which is the number of
    value patterns one column of a canonical team can take."""
    counts = [1] + [0] * k  # counts[j]: splits into j classes so far
    for _ in range(k):
        counts = [0] + [j * counts[j] + counts[j - 1] for j in range(1, len(counts))]
    return sum(counts)


def _canonical_teams(n: int, k: int):
    """Lists of k >= 1 distinct rows over n columns, at least one for each
    team of k rows up to renaming the values of each column.

    Orderly generation (Read 1978): a depth-first search appends rows in
    strictly increasing order, each value at most one more than the largest
    value above it in its column.  It misses no team.  Rename each column of
    a team's rows, in some order, by first occurrence (0, 1, 2, ...), and
    take the order whose renamed list is least.  Its rows increase: if rows
    i and i + 1 decreased, swapping them keeps the rows before i and gives
    row i, column by column, a label no larger than the old row i + 1 had
    (a value seen before keeps its label, a new one takes the next free
    one), so a smaller list.
    """

    def extend(rows, tops):
        if len(rows) == k:
            yield rows
            return
        last = rows[-1]
        for row in itertools.product(*[range(t + 2) for t in tops]):
            if row > last:
                yield from extend([*rows, row], tuple(map(max, tops, row)))

    yield from extend([(0,) * n], (0,) * n)


def semantic_entails(premises, goal: DepAtom | IndAtom, max_rows: int | None = None) -> EntailmentVerdict:
    """Search the teams of at most `max_rows` rows, fewest rows first, for
    one that satisfies the premises and falsifies the goal.

    The search is exhaustive for its bound (:func:`_canonical_teams`).  In
    the two fragments with a small-countermodel guarantee (pure dep atoms;
    unconditional single-variable independence atoms) a goal that is not
    entailed fails on a two-row team, so two rows are searched and the
    verdict is exact.  Elsewhere it means "entailed up to `max_rows` rows",
    by default the largest bound up to ``DEFAULT_MAX_ROWS`` whose plan fits
    ``ENTAILMENT_CHECK_CAP``.  A bound below 2 is rejected, since smaller
    teams satisfy every atom, and a plan over the cap is refused before the
    search starts.  Each atom is compiled once into a check over row lists
    (:func:`_row_check`); only the countermodel becomes a ``Team``,
    re-checked through ``satisfies_dep`` and ``satisfies_ind`` and reported
    over the least domain that holds its values.  The verdict counts the
    atom checks made.
    """
    premises = tuple(premises)
    if max_rows is not None and max_rows < 2:
        raise LogicError("vacuous search: rows are bounded below 2")
    scope = _scope(premises + (goal,))
    exact = fragment_of(premises, goal) in ("dep", "ind-unconditional")
    per_team = len(premises) + 1

    def fits(bound: int) -> bool:
        """Does a search up to `bound` rows plan at most the cap's checks?"""
        if not scope:  # a team over no variables has one row at most
            return True
        total = 0
        for k in range(2, bound + 1):  # stops early: B(k) >= 2^(k - 1)
            total += _pattern_count(k) ** len(scope) * per_team
            if total > ENTAILMENT_CHECK_CAP:
                return False
        return True

    if exact:
        bound = 2
    elif max_rows is None:  # the largest default that fits, or 2 to be refused
        bound = next((k for k in range(DEFAULT_MAX_ROWS, 2, -1) if fits(k)), 2)
    else:
        bound = max_rows
    if not fits(bound):
        raise SearchSpaceError(
            f"search space too large: over {ENTAILMENT_CHECK_CAP} atom checks to run"
        )

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

    for k in range(2, bound + 1):
        for rows in _canonical_teams(len(scope), k):
            if refutes(rows):
                team = _rechecked(Team(scope, rows), premises, goal)
                size = max(2, 1 + max(map(max, rows)))
                return EntailmentVerdict(False, team, Structure.plain(size), bound, exact, checks)
    return EntailmentVerdict(True, None, None, bound, exact, checks)
