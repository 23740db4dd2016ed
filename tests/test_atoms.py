"""Inference engines: closures, decision procedures, countermodels, traces."""

import hashlib
import itertools
import json
import random
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teamlogic import atoms
from teamlogic.atoms import (
    CLOSURE_RULES,
    ClosureResult,
    DerivationTrace,
    RULE_CHECKERS,
    TraceStep,
    armstrong_closure,
    armstrong_derives,
    counterexample_armstrong,
    counterexample_independence,
    independence_derives,
    rule_closure,
    semantic_entails,
)
from teamlogic.core import Team, enumerate_teams, subsets
from teamlogic.errors import LogicError, SearchSpaceError
from teamlogic.generators import random_dep_statements, random_ind_statements
from teamlogic.semantics import satisfies_dep, satisfies_ind
from teamlogic.syntax import DepAtom, IndAtom, parse_atom_statement as atom


def _holds(team, a):
    if isinstance(a, DepAtom):
        return satisfies_dep(team, a.determiner, a.determined)
    return satisfies_ind(team, a.left, a.condition, a.right)


class TestArmstrongClosure:
    def test_transitive_chain(self):
        T = (atom("dep(y ; z)"), atom("dep(z ; x)"))
        assert armstrong_closure(T, ("y",)) == {"x", "y", "z"}

    def test_empty_premises(self):
        assert armstrong_closure((), ("x",)) == {"x"}

    def test_no_rule_fires(self):
        assert armstrong_closure((atom("dep(x ; y)"),), ("z",)) == {"z"}


class TestArmstrongDerives:
    def test_transitivity(self):
        T = (atom("dep(y ; z)"), atom("dep(z ; x)"))
        trace = armstrong_derives(T, atom("dep(y ; x)"))
        assert trace is not None and trace.verify(T)

    def test_projection_from_nothing(self):
        trace = armstrong_derives((), atom("dep(x y ; x)"))
        assert trace is not None and trace.verify(())

    def test_not_derivable(self):
        assert armstrong_derives((atom("dep(x ; y)"),), atom("dep(y ; x)")) is None

    def test_rejects_ind_atoms(self):
        with pytest.raises(LogicError):
            armstrong_derives((atom("ind(x ; ; y)"),), atom("dep(x ; y)"))


class TestArmstrongCounterexample:
    def test_reversal_goal(self):
        T = (atom("dep(x ; y)"),)
        team = counterexample_armstrong(T, atom("dep(y ; x)"))
        assert team.scope == ("x", "y")
        assert team.rows == ((0, 0), (1, 0))
        assert _holds(team, T[0]) and not _holds(team, atom("dep(y ; x)"))

    def test_empty_premises(self):
        team = counterexample_armstrong((), atom("dep(y ; x)"))
        assert team.rows == ((0, 0), (1, 0))

    def test_derivable_returns_none(self):
        assert counterexample_armstrong((atom("dep(y ; x)"),), atom("dep(y ; x)")) is None


class TestIndependenceDerives:
    def test_symmetry(self):
        trace = independence_derives((atom("ind(x ; ; y)"),), atom("ind(y ; ; x)"))
        assert trace is not None and trace.verify((atom("ind(x ; ; y)"),))

    def test_constancy(self):
        T = (atom("ind(x ; ; x)"),)
        trace = independence_derives(T, atom("ind(y ; ; x)"))
        assert trace is not None and trace.verify(T)

    def test_left_self_constancy(self):
        T = (atom("ind(y ; ; y)"),)
        trace = independence_derives(T, atom("ind(y ; ; x)"))
        assert trace is not None and trace.verify(T)

    def test_unrelated_premises(self):
        T = (atom("ind(x ; ; y)"), atom("ind(u ; ; v)"))
        assert independence_derives(T, atom("ind(x ; ; u)")) is None

    def test_rejects_conditional_atoms(self):
        with pytest.raises(LogicError):
            independence_derives((atom("ind(x ; z ; y)"),), atom("ind(x ; ; y)"))
        with pytest.raises(LogicError):
            independence_derives((), atom("ind(x y ; ; z)"))


class TestIndependenceCounterexample:
    def test_empty_premises(self):
        team = counterexample_independence((), atom("ind(y ; ; x)"))
        # x = y in both rows, so no row mixes x=0 with y=1.
        assert team.scope == ("x", "y")
        assert team.rows == ((0, 0), (1, 1))
        assert not _holds(team, atom("ind(y ; ; x)"))

    def test_disjoint_premise_survives(self):
        T = (atom("ind(u ; ; v)"),)
        team = counterexample_independence(T, atom("ind(x ; ; y)"))
        assert _holds(team, T[0])
        assert not _holds(team, atom("ind(x ; ; y)"))

    def test_derivable_returns_none(self):
        assert counterexample_independence((atom("ind(x ; ; x)"),), atom("ind(y ; ; x)")) is None


class TestRuleClosure:
    def test_transitivity_through_independence(self):
        T = (atom("ind(y ; z ; y)"), atom("ind(x ; y ; x)"))
        result = rule_closure(T)
        goal = atom("ind(x ; z ; x)").canonical()
        assert goal in result.atoms and not result.truncated
        trace = result.derivation_of(goal)
        assert trace is not None and trace.verify(T)

    def test_symmetry_member(self):
        result = rule_closure((atom("ind(z ; x ; y)"),))
        assert atom("ind(y ; x ; z)").canonical() in result.atoms

    def test_reflexivity_from_empty(self):
        result = rule_closure((), universe=("x", "y"))
        assert atom("ind(x ; x ; y)").canonical() in result.atoms

    def test_truncation_flag(self):
        T = (atom("ind(x ; y ; z)"), atom("dep(x ; w)"))
        result = rule_closure(T, max_steps=10)
        assert result.truncated

    def test_every_step_recheckable(self):
        T = (atom("ind(y ; z ; y)"), atom("dep(z ; x)"))
        result = rule_closure(T, universe=("x", "y", "z"))
        assert result.trace.verify(T)

    def test_inventory_is_registered(self):
        for rule in CLOSURE_RULES:
            assert rule in RULE_CHECKERS

    def test_step_bound_stops_the_reflexivity_seeding(self, monkeypatch):
        # A 10-variable universe has 4**10 reflexivity candidates; the first
        # eleven fill the ten steps and flag the truncation.  Candidates are
        # bitmasks, so an atom is built only for each step.
        built = []
        init = IndAtom.__init__
        monkeypatch.setattr(IndAtom, "__init__", lambda a, *args: built.append(a) or init(a, *args))
        result = rule_closure((), max_steps=10, universe=tuple("abcdefghij"))
        assert result.truncated and len(result.atoms) == 10
        assert len(built) == 10

    def test_bounded_closure_over_a_wide_universe_stays_small(self):
        # The 2**20 subsets of a 20-variable universe are walked lazily, so
        # ten steps cost ten seeds; listing them all takes 0.70 s and 149 MB.
        tracemalloc.start()
        try:
            start = time.perf_counter()
            result = rule_closure((), max_steps=10, universe=[f"v{i}" for i in range(20)])
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.truncated and len(result.atoms) == 10
        assert peak < 10**6 and elapsed < 0.2

    def test_negative_step_bound_rejected(self):
        with pytest.raises(LogicError, match="step bound is negative"):
            rule_closure((atom("ind(x ; ; y)"),), max_steps=-1)
        result = rule_closure((atom("ind(x ; ; y)"),), max_steps=0)
        assert result.truncated and not result.atoms

    def test_goal_variables_join_the_universe(self):
        goal = atom("ind(x ; x ; y)")
        result = rule_closure((), goal=goal)
        assert goal.canonical() in result.atoms
        assert result.derivation_of(goal).verify(())

    def test_four_variable_closure_pinned(self):
        result = rule_closure((), universe=("a", "b", "c", "d"))
        assert len(result.atoms) == 2048 and not result.truncated
        digest = "0b94823474a64805893d08278950394e7cf03b2ff6e63370a3e85b6532e3b936"
        assert hashlib.sha256(result.trace.render().encode()).hexdigest() == digest

    def test_five_variable_closure_pinned(self):
        # The digest is of the trace the tuple-set closure gave (about 5 s).
        result = rule_closure((), universe=tuple("abcde"))
        assert len(result.atoms) == 12670 and not result.truncated
        digest = "36f67c8a9dcba312209fffdbab3b657b7593bd2f05d3cf2de5801c13fb570c11"
        assert hashlib.sha256(result.trace.render().encode()).hexdigest() == digest

    def test_four_variable_pool_set_pinned(self):
        # Entailment-pool record 17; the digest is of the trace the plain
        # snapshot join gave, which took about 45 s.
        T = [atom(s) for s in ("dep(; a d)", "dep(; a c)", "dep(c b ; c)", "dep(; b)",
                               "dep(d a ; b)")]
        result = rule_closure(T)
        assert len(result.atoms) == 4352 and not result.truncated
        digest = "8aa64af8ca3d701c385c410c83f31817d40861333014ce697e15ed3fe2fe7a48"
        assert hashlib.sha256(result.trace.render().encode()).hexdigest() == digest

    def test_goal_stop_keeps_every_pool_derivation(self):
        pool = Path(__file__).resolve().parents[1] / "bench" / "pool" / "entailment.jsonl"
        derived = 0
        for line in pool.read_text().splitlines():
            record = json.loads(line)
            premises = [atom(a) for a in record["atoms"]]
            goal = atom(record["goal"])
            if record["cmd"] != "entail" or atoms.fragment_of(premises, goal) != "mixed":
                continue
            universe = atoms._scope((*premises, goal))
            full = rule_closure(premises, universe=universe).derivation_of(goal)
            stopped = rule_closure(premises, universe=universe, goal=goal)
            assert stopped.derivation_of(goal) == full
            assert stopped.truncated is False
            derived += full is not None
        assert derived == 4


def _snapshot_closure(premises, max_steps, universe) -> ClosureResult:
    """The closure with the plain join: each dequeued atom meets a snapshot
    of every atom known at that moment, both ways round."""
    steps, known, cut = [], {}, []

    def add(rule, prem, a):
        a = a.canonical()
        if a in known:
            return
        if len(steps) >= max_steps:
            cut.append(True)
            return
        known[a] = len(steps)
        steps.append(TraceStep(rule, prem, a))

    subs = tuple(subsets(universe))
    for p in premises:
        add("premise", (), p)
    for a in subs:
        for b in subs:
            add("reflexivity", (), IndAtom(a, a, b))
    i = 0
    while i < len(steps) and not cut:
        x = steps[i].atom
        if isinstance(x, IndAtom):
            L, C, R = x.left, x.condition, x.right
            add("symmetry", (i,), IndAtom(R, C, L))
            add("fixed-parameter", (i,), IndAtom(R + C, C, L + C))
            for l_sub, r_sub in itertools.product(subsets(L), subsets(R)):
                add("weakening", (i,), IndAtom(l_sub, C, r_sub))
            for z in subs if L == R else ():
                add("constancy", (i,), IndAtom(L, C, z))
            add("ind-to-dep", (i,), DepAtom(C, tuple(v for v in L if v in R)))
        else:
            for z in subs:
                add("dep-to-ind", (i,), IndAtom(x.determined, x.determiner, z))
            for more in subsets(v for v in universe if v not in x.determiner):
                if more:
                    add("armstrong-augmentation", (i,),
                        DepAtom(x.determiner + more, x.determined))
        for y, j in list(known.items()):
            for (a, ia), (b, ib) in (((x, i), (y, j)), ((y, j), (x, i))):
                if isinstance(a, IndAtom) and isinstance(b, IndAtom):
                    if set(b.condition) == {*a.condition, *a.left} and b.right == a.right:
                        add("first-transitivity", (ia, ib), IndAtom(b.left, a.condition, a.right))
                    if a.left == a.right == b.condition and set(a.condition) <= set(b.left):
                        add("second-transitivity", (ia, ib), IndAtom(b.left, a.condition, b.right))
        i += 1
    return ClosureResult(frozenset(known), DerivationTrace(tuple(steps)), bool(cut))


_VARS = st.lists(st.sampled_from("xyz"), max_size=2).map(tuple)
_MIXED_ATOM = st.one_of(st.builds(DepAtom, _VARS, _VARS), st.builds(IndAtom, _VARS, _VARS, _VARS))
_MIXED_ATOMS = st.lists(_MIXED_ATOM, max_size=3)


@settings(max_examples=150, deadline=None)
@given(_MIXED_ATOMS, st.integers(0, 600), st.lists(st.sampled_from("xyz"), max_size=3))
def test_indexed_join_matches_snapshot_join(premises, max_steps, extra):
    universe = atoms._scope(premises, extra)
    result = rule_closure(premises, max_steps=max_steps, universe=universe)
    reference = _snapshot_closure(premises, max_steps, universe)
    assert result.trace.steps == reference.trace.steps
    assert result.truncated == reference.truncated


@settings(max_examples=150, deadline=None)
@given(_MIXED_ATOMS, _MIXED_ATOM)
def test_goal_stop_cuts_the_full_closure(premises, goal):
    # With a goal the closure is the full one cut just after the goal's
    # step, or the whole of it when the goal is never derived.
    universe = atoms._scope((*premises, goal))
    full = rule_closure(premises, universe=universe)
    stopped = rule_closure(premises, universe=universe, goal=goal)
    steps = full.trace.steps
    at = next((i for i, step in enumerate(steps) if step.atom == goal.canonical()), None)
    assert stopped.trace.steps == (steps if at is None else steps[: at + 1])
    assert stopped.truncated == full.truncated


def _pairwise_closure(premises, max_steps, universe, goal=None) -> ClosureResult:
    """The bitmask closure with a pair-both-ways join: every atom filed under
    a flipped join key meets the dequeued atom both ways round, for both
    transitivity rules, and every conclusion goes through the known test
    inside `add`."""
    bit = {v: 1 << i for i, v in enumerate(universe)}
    full = (1 << len(universe)) - 1

    def key(a):
        return tuple(sum({bit[v] for v in part}) for part in vars(a).values())

    def subs(mask):
        return tuple(map(sum, subsets(b for b in bit.values() if b & mask)))

    def names(mask):
        return tuple(v for v, b in bit.items() if b & mask)

    def join_keys(L, C, R):
        return ((0, C | L, R), (1, C, R), (2, C), *(((3, L),) if L == R else ()))

    goal = None if goal is None else key(goal)
    keys, steps, known, index, cut = [], [], {}, {}, []

    def add(rule, prem, k):
        if k in known or goal in known:
            return
        if len(steps) >= max_steps:
            cut.append(True)
            return
        known[k] = len(steps)
        for jk in join_keys(*k) if len(k) == 3 else ():
            index.setdefault(jk, []).append(len(steps))
        keys.append(k)
        steps.append(TraceStep(rule, prem, (IndAtom if len(k) == 3 else DepAtom)(*map(names, k))))

    def binary(i, a, j, b):
        (aL, aC, aR), (bL, bC, bR) = a, b
        if bC == aC | aL and bR == aR:
            add("first-transitivity", (i, j), (bL, aC, aR))
        if aL == aR == bC and not aC & ~bL:
            add("second-transitivity", (i, j), (bL, aC, bR))

    for p in premises:
        add("premise", (), key(p))
    for a in subs(full):
        for b in subs(full):
            add("reflexivity", (), (a, a, b))
    universe_subsets = () if cut or goal in known else subs(full)
    i = 0
    while i < len(steps) and not cut and goal not in known:
        k = keys[i]
        if len(k) == 3:
            L, C, R = k
            add("symmetry", (i,), (R, C, L))
            add("fixed-parameter", (i,), (R | C, C, L | C))
            for l_sub, r_sub in itertools.product(subs(L), subs(R)):
                add("weakening", (i,), (l_sub, C, r_sub))
            for z in universe_subsets if L == R else ():
                add("constancy", (i,), (L, C, z))
            add("ind-to-dep", (i,), (C, L & R))
            partners = {j for tag, *jk in join_keys(*k) for j in index.get((tag ^ 1, *jk), ())}
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
    return ClosureResult(frozenset(s.atom for s in steps), DerivationTrace(tuple(steps)), bool(cut))


def test_rule_joins_match_the_pairwise_join():
    # Seeded premise sets over 3-4 variables, with and without a goal; a
    # third of the runs cut the closure at a transitivity step of the full
    # closure, so the step bound falls inside a join.
    rng = random.Random(31)
    cut_in_join = 0
    for case in range(36):
        universe = tuple("abcd"[: 3 + case % 2])
        premises = tuple(_random_atom(rng, list(universe)) for _ in range(rng.randint(0, 3)))
        goal = _random_atom(rng, list(universe)) if case % 4 >= 2 else None
        max_steps = atoms.DEFAULT_MAX_STEPS
        if case % 3 == 0:
            steps = rule_closure(premises, universe=universe, goal=goal).trace.steps
            joins = [i for i, step in enumerate(steps) if step.rule.endswith("transitivity")]
            if joins:
                max_steps = rng.choice(joins)
                cut_in_join += 1
        new = rule_closure(premises, max_steps, universe, goal)
        old = _pairwise_closure(premises, max_steps, universe, goal)
        assert new.trace.render() == old.trace.render(), (premises, goal, max_steps)
        assert new.truncated == old.truncated
    assert cut_in_join >= 6


# ---------------------------------------------------------------------------
# The registry rejects near misses; verify rejects malformed traces.
# ---------------------------------------------------------------------------

# rule: (premises, a conclusion the rule gives, a near miss: premises and
# conclusion).  Each near miss has one tuple off by a variable, the wrong
# atom kind, or the wrong premise count.
NEAR_MISSES = {
    "premise": ((), "dep(x ; y)", (("dep(x ; y)",), "dep(x ; y)")),
    "dep-reflexivity": ((), "dep(x y ; y x)", ((), "dep(x y ; x)")),
    "armstrong-augmentation": (
        ("dep(x ; y)",), "dep(x z ; y)", (("dep(x ; y)",), "dep(z ; y)")
    ),
    "dep-transitivity": (
        ("dep(x ; y)", "dep(y ; z)"), "dep(x ; z)", (("dep(x ; y)", "dep(y ; z)"), "dep(x ; y z)")
    ),
    "dep-union": (
        ("dep(x ; y)", "dep(x ; z)"), "dep(x ; y z)", (("dep(x ; y)", "dep(x ; z)"), "dep(x ; y)")
    ),
    "dep-projection": (("dep(x ; y z)",), "dep(x ; y)", (("dep(x ; y z)",), "dep(x ; y w)")),
    "reflexivity": ((), "ind(x ; x ; y)", (("ind(x ; x ; y)",), "ind(x ; x ; y)")),
    "symmetry": (("ind(x ; z ; y)",), "ind(y ; z ; x)", (("ind(x ; z ; y)",), "ind(y ; ; x)")),
    "weakening": (
        ("ind(x y ; z ; u)",), "ind(x ; z ; u)", (("ind(x y ; z ; u)",), "ind(x w ; z ; u)")
    ),
    "permutation": (
        ("ind(x y ; z ; u)",), "ind(y x ; z ; u)", (("ind(x y ; z ; u)",), "dep(x y ; z u)")
    ),
    "fixed-parameter": (
        ("ind(x ; z ; y)",), "ind(y z ; z ; x z)", (("ind(x ; z ; y)",), "ind(y ; z ; x z)")
    ),
    "first-transitivity": (
        ("ind(x ; z ; y)", "ind(u ; x z ; y)"),
        "ind(u ; z ; y)",
        (("ind(x ; z ; y)", "ind(u ; x z ; y)"), "ind(u ; ; y)"),
    ),
    "second-transitivity": (
        ("ind(y ; z ; y)", "ind(z x ; y ; u)"),
        "ind(x ; z ; u)",
        (("ind(y ; z ; y)", "ind(z x ; y ; u)"), "ind(w ; z ; u)"),
    ),
    "constancy": (
        ("ind(y ; x ; y)",), "ind(y ; x ; z)", (("ind(y ; x ; y)",), "ind(z ; x ; y)")
    ),
    "dep-to-ind": (("dep(x ; y)",), "ind(y ; x ; z)", (("dep(x ; y)",), "ind(y ; ; z)")),
    "ind-to-dep": (
        ("ind(x y ; z ; y u)",), "dep(z ; y)", (("ind(x y ; z ; y u)",), "dep(z ; x y)")
    ),
}


@pytest.mark.parametrize("rule", sorted(RULE_CHECKERS))
def test_rule_checker_rejects_a_near_miss(rule):
    premises, conclusion, (miss_premises, miss) = NEAR_MISSES[rule]
    check = RULE_CHECKERS[rule]
    assert check(tuple(map(atom, premises)), atom(conclusion))
    assert not check(tuple(map(atom, miss_premises)), atom(miss))


@pytest.mark.parametrize("premises", [(), (0, 0)])
def test_verify_rejects_a_wrong_premise_count(premises):
    axiom = atom("ind(x ; ; y)")

    def trace(cited):
        steps = [TraceStep("premise", (), axiom), TraceStep("symmetry", cited, atom("ind(y ; ; x)"))]
        return DerivationTrace(tuple(steps))

    assert trace((0,)).verify((axiom,))
    assert not trace(premises).verify((axiom,))


def test_verify_rejects_an_empty_trace():
    assert not DerivationTrace(()).verify(())


# ---------------------------------------------------------------------------
# Rule soundness: premises hold => conclusion holds, team by team.
# ---------------------------------------------------------------------------

VARS3 = ("x", "y", "z")


def _instantiations(rng, rule, pool, count=4):
    """Sample concrete premise/conclusion instances of one closure rule."""
    subsets = [tuple(c) for k in range(len(pool) + 1) for c in itertools.combinations(pool, k)]
    nonempty = [s for s in subsets if s]

    def pick(allow_empty=True):
        return rng.choice(subsets if allow_empty else nonempty)

    out = []
    for _ in range(count):
        if rule == "reflexivity":
            a, b = pick(), pick()
            out.append(((), IndAtom(a, a, b)))
        elif rule == "symmetry":
            p = IndAtom(pick(), pick(), pick())
            out.append(((p,), IndAtom(p.right, p.condition, p.left)))
        elif rule == "weakening":
            l, c, r = pick(), pick(), pick()
            l2 = tuple(v for v in l if rng.random() < 0.6)
            r2 = tuple(v for v in r if rng.random() < 0.6)
            out.append(((IndAtom(l, c, r),), IndAtom(l2, c, r2)))
        elif rule == "permutation":
            p = IndAtom(pick(), pick(), pick())
            out.append(((p,), p.canonical()))
        elif rule == "fixed-parameter":
            p = IndAtom(pick(), pick(), pick())
            conc = IndAtom(
                tuple(sorted(set(p.right) | set(p.condition))),
                p.condition,
                tuple(sorted(set(p.left) | set(p.condition))),
            )
            out.append(((p,), conc))
        elif rule == "first-transitivity":
            x_, z_, y_, u_ = pick(), pick(), pick(), pick()
            p1 = IndAtom(x_, z_, y_)
            p2 = IndAtom(u_, tuple(sorted(set(z_) | set(x_))), y_)
            out.append(((p1, p2), IndAtom(u_, z_, y_)))
        elif rule == "second-transitivity":
            y_, z_, u_ = pick(not rng.random() < 0.3), pick(), pick()
            w_ = tuple(sorted(set(z_) | set(pick())))
            p1 = IndAtom(y_, z_, y_)
            p2 = IndAtom(w_, y_, u_)
            out.append(((p1, p2), IndAtom(w_, z_, u_)))
        elif rule == "constancy":
            y_, x_, z_ = pick(), pick(), pick()
            out.append(((IndAtom(y_, x_, y_),), IndAtom(y_, x_, z_)))
        elif rule == "dep-to-ind":
            a, b, z_ = pick(), pick(), pick()
            out.append(((DepAtom(a, b),), IndAtom(b, a, z_)))
        elif rule == "ind-to-dep":
            p = IndAtom(pick(), pick(), pick())
            shared = tuple(sorted(set(p.left) & set(p.right)))
            out.append(((p,), DepAtom(p.condition, shared)))
        elif rule == "armstrong-augmentation":
            a, b, more = pick(), pick(), pick()
            out.append(
                ((DepAtom(a, b),), DepAtom(tuple(sorted(set(a) | set(more))), b))
            )
        else:
            raise AssertionError(rule)
    return out


@pytest.mark.parametrize("rule", CLOSURE_RULES)
def test_rule_soundness_exhaustive_small(rule):
    rng = random.Random(hash(rule) & 0xFFFF)
    cases = _instantiations(rng, rule, VARS3, count=5)
    teams = list(enumerate_teams(VARS3, range(2)))
    for premises, conclusion in cases:
        checker = RULE_CHECKERS[rule]
        assert checker(premises, conclusion), (rule, premises, conclusion)
        for team in teams:
            if all(_holds(team, p) for p in premises):
                assert _holds(team, conclusion), (rule, premises, conclusion, team.rows)


# ---------------------------------------------------------------------------
# Completeness agreements (small samples here; full runs in acceptance).
# ---------------------------------------------------------------------------


def test_armstrong_agreement_sample():
    rng = random.Random(7)
    for _ in range(40):
        universe = ["a", "b", "c", "d"][: rng.randint(2, 4)]
        T = random_dep_statements(rng, universe, max_atoms=4)
        goal = DepAtom(
            tuple(rng.sample(universe, rng.randint(0, 2))),
            tuple(rng.sample(universe, rng.randint(1, 2))),
        )
        derived = armstrong_derives(T, goal) is not None
        verdict = semantic_entails(T, goal)
        assert derived == verdict.entailed
        assert verdict.exact
        if not derived:
            team = counterexample_armstrong(T, goal)
            assert all(_holds(team, p) for p in T) and not _holds(team, goal)


def test_independence_agreement_sample():
    rng = random.Random(11)
    for _ in range(40):
        universe = ["a", "b", "c", "d", "e"][: rng.randint(2, 5)]
        T = random_ind_statements(rng, universe, max_atoms=4)
        goal = IndAtom((rng.choice(universe),), (), (rng.choice(universe),))
        derived = independence_derives(T, goal) is not None
        verdict = semantic_entails(T, goal)
        assert derived == verdict.entailed
        if not derived:
            team = counterexample_independence(T, goal)
            assert len(team.rows) == 2
            assert all(_holds(team, p) for p in T) and not _holds(team, goal)


def test_closure_is_semantically_sound_sample():
    rng = random.Random(3)
    for _ in range(6):
        universe = ("x", "y", "z")
        T = random_dep_statements(rng, universe, max_atoms=2) + tuple(
            random_ind_statements(rng, universe, max_atoms=1)
        )
        closure = rule_closure(T, max_steps=4000, universe=universe)
        derived = sorted(closure.atoms, key=str)
        rng.shuffle(list(derived))
        for goal in derived[:30]:
            verdict = semantic_entails(T, goal)
            assert verdict.entailed, (T, goal)


def test_semantic_entails_witness_is_rechecked():
    verdict = semantic_entails((), atom("ind(x ; ; y)"))
    assert not verdict.entailed
    team = verdict.witness
    assert not _holds(team, atom("ind(x ; ; y)"))
    assert verdict.witness_structure.size >= 2


def test_canonical_team_search_is_capped():
    # At 7 rows over x y z there are B(7) = 877 column patterns per
    # variable, 877^3 teams: refused up front instead of enumerated.  The
    # exact fragments search two rows whatever the bound.
    with pytest.raises(SearchSpaceError, match="search space too large"):
        semantic_entails((atom("ind(x ; z ; y)"),), atom("ind(y ; z ; x)"), max_rows=7)
    premises = (atom("ind(x ; ; y)"), atom("ind(y ; ; z)"))
    verdict = semantic_entails(premises, atom("ind(y ; ; x)"), max_rows=7)
    assert verdict.entailed and verdict.exact and verdict.max_rows == 2


def test_row_bound_below_two_rejected():
    for bound in (1, 0, -1):
        with pytest.raises(LogicError, match="vacuous search"):
            semantic_entails((), atom("dep(x ; y)"), max_rows=bound)


def test_independence_does_not_transfer_to_third_variable():
    T = (atom("ind(x ; ; y)"),)
    verdict = semantic_entails(T, atom("ind(x ; ; z)"))
    assert not verdict.entailed
    assert _holds(verdict.witness, T[0])
    assert not _holds(verdict.witness, atom("ind(x ; ; z)"))


def test_semantic_entails_reports_bound():
    verdict = semantic_entails((atom("ind(x ; z ; y)"),), atom("ind(y ; z ; x)"))
    assert verdict.entailed
    # conditional atoms sit outside the promoted fragments
    assert not verdict.exact
    assert verdict.max_rows == atoms.DEFAULT_MAX_ROWS == 4


def test_default_bound_falls_back_to_fit_the_cap():
    # Over five variables 4 rows would plan (2^5 + 5^5 + 15^5) * 3 checks,
    # over the cap, so the search takes 3 rows: every team of at most 3
    # rows, where the sampled search used to take 0.03 s.  The count takes
    # in the checks of dep(d ; e) on each prefix the search extends.
    premises = (atom("ind(a ; b ; c)"), atom("dep(d ; e)"))
    verdict = semantic_entails(premises, atom("ind(c ; b ; a)"))
    assert verdict.entailed and not verdict.exact
    assert verdict.max_rows == 3 and verdict.checks == 3234
    with pytest.raises(SearchSpaceError, match="search space too large"):
        semantic_entails(premises, atom("ind(c ; b ; a)"), max_rows=4)


def test_entailment_checks_no_team_twice():
    # Each canonical team is checked once: 7 + 71 + 1,019 teams of 2 to 4
    # rows, the premise on each and the goal on the 422 that satisfy it.
    verdict = semantic_entails((atom("ind(x ; z ; y)"),), atom("ind(y ; z ; x)"))
    assert verdict.entailed and not verdict.exact
    assert verdict.checks == 1519


@pytest.mark.parametrize(
    "premises, goal, checks",
    [
        # The four entailed mixed queries of the entailment pool, records
        # 44-47.  The search stops at each prefix that breaks a dep-shaped
        # premise; the counts take in those prefix checks.
        (("ind(b ; ; a b)", "ind(a ; c ; c)"), "ind(b ; a ; b)", 339),
        (("ind(a c ; ; a)",), "ind(b c ; ; a)", 316),
        (("ind(a ; b ; c)", "ind(c ; a ; b c)", "ind(c ; ; a)"), "dep(c ; c)", 1208),
        (("ind(a ; ; a)", "ind(c ; c ; c)"), "ind(a ; c ; c)", 31),
    ],
    ids=["record44", "record45", "record46", "record47"],
)
def test_pool_entailed_mixed_checks_pinned(premises, goal, checks):
    verdict = semantic_entails(tuple(atom(a) for a in premises), atom(goal))
    assert verdict.entailed and verdict.max_rows == 4 and verdict.checks == checks


def test_search_builds_only_the_countermodel_team(monkeypatch):
    # Candidates are checked as plain rows; the one Team built is the
    # countermodel, and its re-check makes the only satisfies_* calls.
    built, calls = [], []
    monkeypatch.setattr(atoms, "Team", lambda scope, rows: built.append(rows) or Team(scope, rows))
    for name in ("satisfies_dep", "satisfies_ind"):
        real = getattr(atoms, name)
        monkeypatch.setattr(atoms, name, lambda *a, _real=real: calls.append(a) or _real(*a))
    premises, goal = (atom("ind(x ; ; y)"), atom("dep(x y ; z)")), atom("ind(x ; z ; y)")
    assert semantic_entails((premises[0],), atom("ind(y ; ; x)")).entailed
    assert built == calls == []
    verdict = semantic_entails(premises, goal)
    assert not verdict.entailed and verdict.checks == 220
    assert len(built) == 1 and Team(verdict.witness.scope, built[0]) == verdict.witness
    assert len(calls) == 3


@pytest.mark.parametrize(
    "route, goal",
    [
        (counterexample_armstrong, "dep(x ; y)"),
        (counterexample_independence, "ind(x ; ; y)"),
        (semantic_entails, "dep(x ; y)"),
    ],
)
def test_countermodel_that_fails_its_recheck_raises(monkeypatch, route, goal):
    # Each route builds a countermodel without satisfies_*; with those
    # made to hold everywhere, the goal holds on it and the re-check fails.
    for name in ("satisfies_dep", "satisfies_ind"):
        monkeypatch.setattr(atoms, name, lambda *a: True)
    with pytest.raises(RuntimeError, match="^countermodel failed its re-check$"):
        route((), atom(goal))


@st.composite
def _scoped_atoms(draw):
    """A scope of 1-4 variables, an atom over it whose sides may be empty,
    overlap or repeat a variable, and distinct rows in no particular order."""
    scope = tuple(draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True)))
    side = st.lists(st.sampled_from(scope), max_size=3).map(tuple)
    a = draw(st.one_of(st.builds(DepAtom, side, side), st.builds(IndAtom, side, side, side)))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 2)] * len(scope)), max_size=9, unique=True))
    return scope, a, rows


@settings(max_examples=400, deadline=None)
@given(_scoped_atoms())
@example((("a", "b", "c"), atom("ind(a c ; ; a)"), [(1, 0, 0), (0, 0, 1), (0, 1, 0)]))
@example((("c",), atom("dep(c ; c)"), [(2,), (0,)]))
@example((("a", "c"), atom("ind(a ; c ; c)"), [(0, 1), (1, 1), (0, 0)]))
def test_row_check_matches_satisfies(case):
    # The compiled check semantic_entails runs on every candidate team
    # against satisfies_dep/satisfies_ind on a Team of the same rows.
    scope, a, rows = case
    assert atoms._row_check(scope, a)(rows) == _holds(Team(scope, rows), a)


@pytest.mark.parametrize(
    "premises, goal, config, size, rows",
    [
        # w is a key, so the 2x2 product of x and y needs four values of w.
        (
            ("dep(w ; x y z)", "ind(x ; ; y)", "dep(x y ; z)"),
            "ind(x ; z ; y)",
            {"max_rows": 4},
            4,
            ((0, 0, 0, 0), (1, 0, 1, 0), (2, 1, 0, 0), (3, 1, 1, 1)),
        ),
        # Every countermodel has four rows, the default bound.
        (
            ("ind(x ; ; y)", "dep(x y ; z)"),
            "ind(x ; z ; y)",
            {},
            2,
            ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)),
        ),
    ],
)
def test_entailment_witness_kept(premises, goal, config, size, rows):
    verdict = semantic_entails(tuple(atom(a) for a in premises), atom(goal), **config)
    assert not verdict.entailed
    assert verdict.witness_structure.size == size and verdict.witness.rows == rows


def test_as_dep_matches_the_definitions():
    # ind(L ; C ; R) with L∖C in R, or R∖C in L, says dep(C ; L∖C): on
    # every team over {0, 1} of three variables and on a seeded sample over
    # {0, 1, 2}, each such atom holds exactly where its dep atom does.
    scope = ("x", "y", "z")
    sides = list(subsets(scope))
    pairs = [(a, a.as_dep()) for a in itertools.starmap(IndAtom, itertools.product(sides, repeat=3))]
    pairs = [(a, d) for a, d in pairs if d is not None]
    assert len(pairs) == 7**3 + 7**3 - 6**3  # L∖C in R, R∖C in L, or both
    binary = list(itertools.product(range(2), repeat=3))
    teams = [Team(scope, rows) for k in range(9) for rows in itertools.combinations(binary, k)]
    rng = random.Random(31)
    ternary = list(itertools.product(range(3), repeat=3))
    teams += [Team(scope, rng.sample(ternary, rng.randint(2, 12))) for _ in range(60)]
    deps = {d for _, d in pairs}
    for team in teams:
        dep_holds = {d: _holds(team, d) for d in deps}
        for a, d in pairs:
            assert _holds(team, a) == dep_holds[d], (a, team.rows)
    # ind(x ; ; y) is no dep atom: its 4-row product team holds it, and the
    # subteam without (1, 1) does not.
    a = atom("ind(x ; ; y)")
    assert a.as_dep() is None
    product = Team(("x", "y"), list(itertools.product(range(2), repeat=2)))
    assert _holds(product, a) and not _holds(Team(product.scope, product.rows[:3]), a)


def _relabel(rows) -> tuple:
    """The rows with each column's values renamed 0, 1, 2, ... in order of
    first occurrence."""
    names = [{} for _ in rows[0]]
    return tuple(tuple(col.setdefault(v, len(col)) for col, v in zip(names, row)) for row in rows)


@pytest.mark.parametrize("n, counts", [(1, [1, 1, 1, 1]), (2, [3, 11, 49, 253]),
                                       (3, [7, 71, 1019, 19317])])
def test_canonical_team_counts_pinned(n, counts):
    # Lists of 2 to 5 rows; each column is one of B(k) value patterns, the
    # bound the search plans with.
    found = [sum(1 for _ in atoms._canonical_teams(n, k)) for k in range(2, 6)]
    assert found == counts
    assert all(c <= atoms._pattern_count(k) ** n for k, c in zip(range(2, 6), counts))
    assert [atoms._pattern_count(k) for k in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_canonical_teams_cover_every_team(n):
    # Brute force over every team of k <= 4 rows over values below k, one
    # per choice of each column's value pattern (every team is a renaming
    # of one): the least relabelling over all row orders is generated.
    for k in range(2, 5):
        generated = {tuple(rows) for rows in atoms._canonical_teams(n, k)}
        patterns = {_relabel([(v,) for v in c]) for c in itertools.product(range(k), repeat=k)}
        for columns in itertools.product(patterns, repeat=n):
            rows = [sum(row, ()) for row in zip(*columns)]
            if len(set(rows)) == k:
                assert min(map(_relabel, itertools.permutations(rows))) in generated


def _random_atom(rng, universe):
    def side(low):
        return tuple(rng.sample(universe, rng.randint(low, min(2, len(universe)))))

    return DepAtom(side(0), side(1)) if rng.random() < 0.3 else IndAtom(side(1), side(0), side(1))


def test_semantic_entails_matches_brute_force():
    # The independent route: every team of at most 3 rows over the domain
    # {0, 1, 2}, which holds the values of any 3-row team, fewest rows
    # first, checked through satisfies_dep/satisfies_ind.
    rng = random.Random(2021)
    teams = {}
    found = 0
    for _ in range(80):
        universe = ["x", "y", "z"][: rng.randint(1, 3)]
        premises = tuple(_random_atom(rng, universe) for _ in range(rng.randint(0, 3)))
        goal = _random_atom(rng, universe)
        scope = tuple(sorted(set(goal.variables()).union(*(p.variables() for p in premises))))
        if scope not in teams:
            teams[scope] = list(enumerate_teams(scope, range(3), max_rows=3))
        first = next((t for t in teams[scope]
                      if all(_holds(t, p) for p in premises) and not _holds(t, goal)), None)
        verdict = semantic_entails(premises, goal, max_rows=3)
        assert verdict.entailed == (first is None), (premises, goal)
        if first is not None:
            found += 1
            assert len(verdict.witness.rows) == len(first.rows), (premises, goal)
    assert 20 <= found <= 60


def _unpruned_search(premises, goal, max_rows=None):
    """The semantic search without its prefix pruning: every list of
    _canonical_teams up to the bound, fewest rows first, each checked whole.
    The verdict, the bound and the first countermodel's rows."""
    scope = atoms._scope((*premises, goal))
    exact = atoms.fragment_of(premises, goal) in ("dep", "ind-unconditional")
    bound = 2 if exact else max_rows or atoms.DEFAULT_MAX_ROWS
    premise_checks = [atoms._row_check(scope, p) for p in premises]
    goal_check = atoms._row_check(scope, goal)
    for k in range(2, bound + 1):
        for rows in atoms._canonical_teams(len(scope), k):
            if all(holds(rows) for holds in premise_checks) and not goal_check(rows):
                return False, bound, Team(scope, rows).rows
    return True, bound, None


def _search_atom(rng, universe, kind):
    """A dep atom (kind 0), a dep-shaped ind atom (1) or an ind atom of any
    shape (2)."""
    def side(low):
        return tuple(rng.sample(universe, rng.randint(low, min(2, len(universe)))))

    if kind == 0:
        return DepAtom(side(0), side(1))
    if kind == 1:
        left = side(1)
        return IndAtom(left, side(0), left + side(0))
    return IndAtom(side(1), side(0), side(1))


def test_pruned_search_matches_the_unpruned_search():
    # Seeded sets over 2-4 variables, a third of them with --max-rows.  Odd
    # cases draw every atom at random.  Even ones add dep and dep-shaped
    # atoms to ind(x ; ; y) and ask for ind(x ; S ; y), whose countermodels
    # may need more than two rows.
    rng = random.Random(31)
    refuted = larger = 0
    for case in range(60):
        universe = ["a", "b", "c", "d"][: 2 + case % 3]
        if case % 2:
            premises = tuple(_search_atom(rng, universe, rng.randrange(3))
                             for _ in range(rng.randint(1, 3)))
            goal = _search_atom(rng, universe, rng.randrange(3))
        else:
            x, y, *rest = rng.sample(universe, len(universe))
            premises = (IndAtom((x,), (), (y,)), *(_search_atom(rng, universe, rng.randrange(2))
                                                   for _ in range(rng.randint(1, 2))))
            goal = IndAtom((x,), tuple(rest[: rng.randint(0, len(rest))]), (y,))
        max_rows = rng.choice((2, 3)) if case % 3 == 0 else None
        verdict = semantic_entails(premises, goal, max_rows)
        entailed, bound, rows = _unpruned_search(premises, goal, max_rows)
        assert (verdict.entailed, verdict.max_rows) == (entailed, bound), (premises, goal)
        assert (None if verdict.witness is None else verdict.witness.rows) == rows, (premises, goal)
        refuted += not entailed
        larger += not entailed and len(rows) > 2
    assert 10 <= refuted <= 50 and larger >= 3
