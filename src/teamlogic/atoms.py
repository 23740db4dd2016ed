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
uses no randomness.  Atoms are checked by the evaluator's compiled kernel
(``semantics._row_check``); a countermodel is re-checked through the plain
``satisfies_dep``/``satisfies_ind`` before it is reported.
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterator

from .core import Structure, Team, VarTuple, subsets
from .errors import LogicError, SearchSpaceError
from .semantics import _row_check, satisfies_dep, satisfies_ind
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


def armstrong_derives(premises, goal: DepAtom) -> DerivationTrace | None:
    """Decide dep-atom entailment by the closure test: a replayable trace
    deriving the goal, or None."""
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
        return None
    add("dep-projection", (current_idx,), goal.canonical())
    return DerivationTrace(tuple(steps))


def _two_row_countermodel(premises, goal, differs) -> Team:
    """Two rows over {0, 1}: every variable takes 0 in the first row, and
    in the second the variables that `differs` picks take 1.  Re-checked
    against the premises and the goal before being returned."""
    scope = _scope(premises + (goal,))
    rows = [tuple(0 for _ in scope), tuple(int(differs(v)) for v in scope)]
    return _rechecked(Team(scope, rows), premises, goal)


def counterexample_armstrong(premises, goal: DepAtom) -> Team | None:
    """Armstrong's two-row countermodel for a non-derivable dep goal, or
    None: the rows agree on the closure of the goal's determiner and
    differ everywhere else."""
    premises = tuple(premises)
    _require_dep(premises + (goal,))
    closure = armstrong_closure(premises, goal.determiner)
    if set(goal.determined) <= closure:
        return None
    return _two_row_countermodel(premises, goal, lambda v: v not in closure)


# ---------------------------------------------------------------------------
# Unconditional independence engine
# ---------------------------------------------------------------------------


def _require_unconditional(atoms):
    _require(
        "ind-unconditional",
        atoms,
        "expected unconditional single-variable ind atoms only, found {}",
    )


def independence_derives(premises, goal: IndAtom) -> DerivationTrace | None:
    """Decide unconditional independence entailment by symmetry and
    constancy: a replayable trace deriving the goal, or None."""
    premises = tuple(premises)
    _require_unconditional(premises + (goal,))
    y, x = goal.left[0], goal.right[0]
    canon = {p.canonical(): p for p in premises}

    def atom(u, v):
        return IndAtom((u,), (), (v,)).canonical()

    steps: list[TraceStep] = []
    if atom(y, x) in canon:
        steps.append(TraceStep("premise", (), atom(y, x)))
        return DerivationTrace(tuple(steps))
    if atom(x, y) in canon:
        steps.append(TraceStep("premise", (), atom(x, y)))
        steps.append(TraceStep("symmetry", (0,), atom(y, x)))
        return DerivationTrace(tuple(steps))
    if atom(y, y) in canon:
        steps.append(TraceStep("premise", (), atom(y, y)))
        steps.append(TraceStep("constancy", (0,), atom(y, x)))
        return DerivationTrace(tuple(steps))
    if atom(x, x) in canon:
        steps.append(TraceStep("premise", (), atom(x, x)))
        steps.append(TraceStep("constancy", (0,), atom(x, y)))
        steps.append(TraceStep("symmetry", (1,), atom(y, x)))
        return DerivationTrace(tuple(steps))
    return None


def counterexample_independence(premises, goal: IndAtom) -> Team | None:
    """The two-row countermodel for a non-derivable unconditional goal
    ``ind(y ; ; x)``, or None: x and y take 0 in one row and 1 in the
    other, and every other variable is 0 in both.  Only a premise over
    x and y fails on it, and each such premise derives the goal."""
    premises = tuple(premises)
    if independence_derives(premises, goal) is not None:
        return None
    differing = {goal.left[0], goal.right[0]}
    return _two_row_countermodel(premises, goal, differing.__contains__)


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
    trace steps are built only for keys not seen before, which each rule
    tests before it adds one.  Subsets come in :func:`core.subsets` order;
    the step budget cuts the closure off and flags the result as truncated.
    Each dequeued ind atom is joined once per transitivity rule and premise
    role, through one index lookup each (``join_keys``), with the atoms
    found so far, in ascending partner order.  With a `goal`, whose
    variables join the default universe, the closure stops as soon as the
    goal is added.  Sound but not claimed complete.
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
        """The keys that file an ind atom for the transitivity joins, one per
        rule and premise role.

        Tag 0 is (condition | left, right), the inner premise of first
        transitivity; tag 1 is (condition, right), its outer premise; tag 2
        is the condition, the outer premise of second transitivity; tag 3 is
        left, for atoms with left = right, its inner premise.  An atom finds
        its partners in the other role under its key with the tag's last bit
        flipped; second transitivity also needs the inner premise's
        condition in the outer one's left.
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
        if goal in known:
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

    for p in map(key, premises):
        if p not in known:
            add("premise", (), p)
    # The seeding walks the 2^n subsets of the universe lazily, and the join
    # below lists them only if the seeding leaves it anything to do, so a
    # bounded closure over a wide universe stays small.
    for a, b in ((a, b) for a in submasks(full) for b in submasks(full)):
        if truncated or goal in known:
            break  # nothing more can be added
        if (a, a, b) not in known:
            add("reflexivity", (), (a, a, b))
    universe_subsets = () if truncated or goal in known else subs(full)

    i = 0
    while i < len(steps) and not truncated and goal not in known:
        k = keys[i]
        if len(k) == 3:
            L, C, R = k
            if (R, C, L) not in known:
                add("symmetry", (i,), (R, C, L))
            if (R | C, C, L | C) not in known:
                add("fixed-parameter", (i,), (R | C, C, L | C))
            for l_sub in subs(L):
                for r_sub in subs(R):
                    if (l_sub, C, r_sub) not in known:
                        add("weakening", (i,), (l_sub, C, r_sub))
            if L == R:
                for z in universe_subsets:
                    if (L, C, z) not in known:
                        add("constancy", (i,), (L, C, z))
            if (C, L & R) not in known:
                add("ind-to-dep", (i,), (C, L & R))
            # One lookup per rule and role, slots 0-3: the atom as the inner
            # premise of first and of second transitivity, then as the outer
            # one.  The firings are collected before the join adds atoms and
            # fire in (partner, slot) order; two may share a conclusion.
            fired = [(j, 0, "first-transitivity", (i, j), c)
                     for j in index.get((1, C | L, R), ())
                     if (c := (keys[j][0], C, R)) not in known]
            if L == R:
                fired += [(j, 1, "second-transitivity", (i, j), c)
                          for j in index.get((2, L), ()) if not C & ~keys[j][0]
                          and (c := (keys[j][0], C, keys[j][2])) not in known]
            fired += [(j, 2, "first-transitivity", (j, i), c)
                      for j in index.get((0, C, R), ()) if (c := (L, keys[j][1], R)) not in known]
            fired += [(j, 3, "second-transitivity", (j, i), c)
                      for j in index.get((3, C), ()) if not keys[j][1] & ~L
                      and (c := (L, keys[j][1], R)) not in known]
            for _, _, rule, prem_idx, c in sorted(fired):
                if c not in known:
                    add(rule, prem_idx, c)
        else:
            D, E = k
            for z in universe_subsets:
                if (E, D, z) not in known:
                    add("dep-to-ind", (i,), (E, D, z))
            for more in subs(full & ~D):
                if more and (D | more, E) not in known:
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


def _pattern_count(k: int) -> int:
    """The Bell number B(k): the ways to split k rows into value classes
    (a sum of Stirling numbers of the second kind), which is the number of
    value patterns one column of a canonical team can take."""
    counts = [1] + [0] * k  # counts[j]: splits into j classes so far
    for _ in range(k):
        counts = [0] + [j * counts[j] + counts[j - 1] for j in range(1, len(counts))]
    return sum(counts)


def _canonical_teams(n: int, k: int, keep=lambda rows: True):
    """Lists of k >= 1 distinct rows over n columns, at least one for each
    team of k rows up to renaming the values of each column, among the teams
    whose every prefix of two or more rows passes `keep`.

    Orderly generation (Read 1978): a depth-first search appends rows in
    strictly increasing order, each value at most one more than the largest
    value above it in its column.  It misses no team.  Rename each column of
    a team's rows, in some order, by first occurrence (0, 1, 2, ...), and
    take the order whose renamed list is least.  Its rows increase: if rows
    i and i + 1 decreased, swapping them keeps the rows before i and gives
    row i, column by column, a label no larger than the old row i + 1 had
    (a value seen before keeps its label, a new one takes the next free
    one), so a smaller list.  A prefix is a subteam, so when `keep` holds of
    every subteam of a team it holds of (is downward closed), the lists it
    drops are exactly those that fail it, and the rest keep their order.
    """

    def extend(rows, tops):
        if len(rows) == k:
            yield rows
            return
        last = rows[-1]
        for row in itertools.product(*[range(t + 2) for t in tops]):
            if row > last and keep(longer := [*rows, row]):
                yield from extend(longer, tuple(map(max, tops, row)))

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
    by the evaluator's kernel (``semantics._row_check``).  The
    downward-closed premises, dep atoms and the ind atoms that
    ``IndAtom.as_dep`` reads as one, are checked on each prefix the search
    extends, and it extends none that breaks one; the others and the goal
    are checked on whole lists.  Only the countermodel
    becomes a ``Team``, re-checked through ``satisfies_dep`` and
    ``satisfies_ind`` and reported over the least domain that holds its
    values.  The verdict counts the atom checks made, prefix checks too.
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

    closed, other = [], []  # downward-closed premises, checked on prefixes; the rest
    for a in premises:
        dep = a if isinstance(a, DepAtom) else a.as_dep()
        (other if dep is None else closed).append(_row_check(scope, a if dep is None else dep))
    goal_check = _row_check(scope, goal)
    checks = 0

    def all_hold(compiled, rows) -> bool:
        nonlocal checks
        for holds in compiled:
            checks += 1
            if not holds(rows):
                return False
        return True

    for k in range(2, bound + 1):
        for rows in _canonical_teams(len(scope), k, lambda rows: all_hold(closed, rows)):
            if all_hold(other, rows) and not all_hold((goal_check,), rows):
                team = _rechecked(Team(scope, rows), premises, goal)
                size = max(2, 1 + max(map(max, rows)))
                return EntailmentVerdict(False, team, Structure.plain(size), bound, exact, checks)
    return EntailmentVerdict(True, None, None, bound, exact, checks)
