"""Acceptance suite.

Each test checks one acceptance criterion at its stated tolerance and
prints one pass/fail line (run with ``pytest tests/test_acceptance.py -s``
to see the lines as they happen).  Expected values marked as derived in
the criteria are computed by independent brute-force oracles inside the
tests, never by the code paths under test.
"""

import itertools
import random
import time
from contextlib import contextmanager

from teamlogic.atoms import (
    CLOSURE_RULES,
    RULE_CHECKERS,
    armstrong_derives,
    counterexample_armstrong,
    counterexample_independence,
    independence_derives,
    semantic_entails,
)
from teamlogic.branching import (
    check_branching_equivalence,
    find_weak_condition_counterexample,
    key_implication_check,
)
from teamlogic.core import Structure, Team, enumerate_teams
from teamlogic.eso import check_translation, eval_eso, translate
from teamlogic.generators import (
    random_checkable_instance,
    random_dep_statements,
    random_formula,
    random_fo_formula,
    random_ind_statements,
    random_structure,
    random_team,
)
from teamlogic.semantics import (
    evaluate,
    satisfies_dep,
    satisfies_ind,
    sentence_sat,
    validity_search,
)
from teamlogic.syntax import (
    DepAtom,
    Henkin,
    IndAtom,
    parse_formula,
)

VARS3 = ("x", "y", "z")
S2 = Structure.plain(2)
SUBSETS3 = [
    tuple(c) for k in range(4) for c in itertools.combinations(VARS3, k)
]
VALID_SENTENCE = "forall x. forall y. exists z. (ind(z ;; x) and z = y)"
INVALID_SENTENCE = "forall x. exists y. exists z. (ind(z ;; x) and z = x)"


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, (
        f"criterion {number} exceeded its runtime bound: {elapsed:.1f}s >= {limit_seconds}s"
    )
    print(f"criterion {number} ({description}): PASS ({elapsed:.1f}s)")


def _holds(team, a):
    if isinstance(a, DepAtom):
        return satisfies_dep(team, a.determiner, a.determined)
    return satisfies_ind(team, a.left, a.condition, a.right)


def test_criterion_01_atom_semantics_conformance():
    with criterion(1, "atom semantics conformance", 5):
        teams = list(enumerate_teams(VARS3, range(2)))
        assert len(teams) == 256

        # dep-atom downward closure over every determiner/determined pair
        violations = 0
        for det in SUBSETS3:
            for dmd in SUBSETS3:
                for team in teams:
                    if not satisfies_dep(team, det, dmd):
                        continue
                    for k in range(len(team.rows)):
                        for sub in itertools.combinations(team.rows, k):
                            if not satisfies_dep(Team(VARS3, sub), det, dmd):
                                violations += 1
        assert violations == 0

        # symmetry of plain independence
        for team in teams:
            assert satisfies_ind(team, ("x",), (), ("y",)) == satisfies_ind(
                team, ("y",), (), ("x",)
            )

        # self-independence is constancy
        for team in teams:
            constant = len({r[0] for r in team.rows}) <= 1
            assert satisfies_ind(team, ("x",), (), ("x",)) == constant


def test_criterion_02_dependence_independence_bridges():
    with criterion(2, "dep/ind bridge laws over all tuple partitions", 30):
        teams = list(enumerate_teams(VARS3, range(2)))
        dep_cache = {
            (a, b): [satisfies_dep(t, a, b) for t in teams]
            for a in SUBSETS3
            for b in SUBSETS3
        }
        for a in SUBSETS3:
            for b in SUBSETS3:
                dep_ab = dep_cache[(a, b)]
                for c in SUBSETS3:
                    shared = tuple(v for v in b if v in set(c))
                    dep_shared = dep_cache[(a, shared)]
                    for i, team in enumerate(teams):
                        ind_bac = satisfies_ind(team, b, a, c)
                        # dep(a;b) implies ind(b;a;c)
                        assert not dep_ab[i] or ind_bac
                        # ind(b;a;c) implies dep(a; b∩c)
                        assert not ind_bac or dep_shared[i]
                # dep(a;b) iff ind(b;a;b)
                for i, team in enumerate(teams):
                    assert dep_ab[i] == satisfies_ind(team, b, a, b)


def test_criterion_03_armstrong_completeness():
    with criterion(3, "functional-dependence completeness, 200 instances", 60):
        rng = random.Random(1003)
        pool = ("a", "b", "c", "d", "e")
        agreements = 0
        for _ in range(200):
            universe = pool[: rng.randint(2, 5)]
            premises = random_dep_statements(rng, universe, max_atoms=6)
            goal = DepAtom(
                tuple(rng.sample(universe, rng.randint(0, 2))),
                tuple(rng.sample(universe, rng.randint(1, 2))),
            )
            derived = armstrong_derives(premises, goal).derived
            verdict = semantic_entails(premises, goal)
            assert derived == verdict.entailed
            agreements += 1
            if not derived:
                team = counterexample_armstrong(premises, goal)
                assert len(team.rows) == 2
                assert all(_holds(team, p) for p in premises)
                assert not _holds(team, goal)
        assert agreements == 200


def test_criterion_04_independence_axiom_completeness():
    with criterion(4, "independence-axiom completeness, 200 instances", 120):
        rng = random.Random(1004)
        pool = ("a", "b", "c", "d", "e")
        agreements = 0
        for _ in range(200):
            universe = pool[: rng.randint(2, 5)]
            premises = random_ind_statements(rng, universe, max_atoms=6)
            goal = IndAtom((rng.choice(universe),), (), (rng.choice(universe),))
            derived = independence_derives(premises, goal).derived
            verdict = semantic_entails(premises, goal)
            assert derived == verdict.entailed
            agreements += 1
            if not derived:
                team = counterexample_independence(premises, goal)
                assert all(_holds(team, p) for p in premises)
                assert not _holds(team, goal)
        assert agreements == 200


def _rule_instances(rng, rule, pool, count):
    subsets = [
        tuple(c) for k in range(len(pool) + 1) for c in itertools.combinations(pool, k)
    ]

    def pick():
        return rng.choice(subsets)

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
            keep_l = tuple(v for v in l if rng.random() < 0.6)
            keep_r = tuple(v for v in r if rng.random() < 0.6)
            out.append(((IndAtom(l, c, r),), IndAtom(keep_l, c, keep_r)))
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
            y_, z_, u_ = pick(), pick(), pick()
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


def test_criterion_05_rule_inventory_soundness():
    with criterion(5, "soundness of the 11-rule inventory", 600):
        pool = ("w", "x", "y", "z")
        rng = random.Random(1005)
        cases = {rule: _rule_instances(rng, rule, pool, 6) for rule in CLOSURE_RULES}
        for rule in CLOSURE_RULES:
            for premises, conclusion in cases[rule]:
                assert RULE_CHECKERS[rule](premises, conclusion)

        unsound = 0
        exhaustive = list(enumerate_teams(pool, range(2), max_rows=8))
        assert len(exhaustive) == 39203
        for team in exhaustive:
            for rule in CLOSURE_RULES:
                for premises, conclusion in cases[rule]:
                    if all(_holds(team, p) for p in premises) and not _holds(
                        team, conclusion
                    ):
                        unsound += 1
        assert unsound == 0

        space = [tuple(r) for r in itertools.product(range(3), repeat=4)]
        for _ in range(10_000):
            team = Team(pool, rng.sample(space, rng.randint(0, 8)))
            for rule in CLOSURE_RULES:
                for premises, conclusion in cases[rule]:
                    if all(_holds(team, p) for p in premises) and not _holds(
                        team, conclusion
                    ):
                        unsound += 1
        assert unsound == 0


def test_criterion_06_sentence_validity():
    with criterion(6, "validity of the two quantified sentences", 60):
        valid = parse_formula(VALID_SENTENCE)
        invalid = parse_formula(INVALID_SENTENCE)
        for mode in ("lax", "strict"):
            result = validity_search(valid, 4, mode=mode)
            assert result.valid_up_to_bound

            result = validity_search(invalid, 4, mode=mode)
            assert result.countermodel is not None
            assert result.countermodel.size == 2

            for size in (1, 2, 3, 4):
                expected = size == 1
                assert (
                    sentence_sat(Structure.plain(size), invalid, mode) == expected
                )


def test_criterion_07_translation_agreement():
    with criterion(7, "second-order translation agreement", 300):
        teams = list(enumerate_teams(VARS3, range(2)))
        atoms = [DepAtom(a, b) for a in SUBSETS3 for b in SUBSETS3]
        atoms += [
            IndAtom(a, b, c)
            for a in SUBSETS3
            for b in SUBSETS3
            for c in SUBSETS3
        ]
        disagreements = 0
        for atom in atoms:
            sentence = translate(atom, VARS3)
            for team in teams:
                if eval_eso(S2, team, sentence) != evaluate(S2, team, atom):
                    disagreements += 1
        assert disagreements == 0

        rng = random.Random(1007)
        for _ in range(30):
            structure, team, formula = random_checkable_instance(rng, max_size=3, depth=3)
            report = check_translation(structure, team, formula)
            assert report.agree
        assert disagreements == 0


def test_criterion_08_branching_agreement_and_key_implication():
    with criterion(8, "branching prefix agreement and key implication", 300):
        rng = random.Random(1008)
        agreements = 0
        for _ in range(50):
            size = rng.choice((2, 3))
            structure = random_structure(rng, size, {"R": 2})
            matrix = random_fo_formula(
                rng, ["x", "y", "u", "v"], depth=rng.randint(1, 3), relations={"R": 2}
            )
            h = Henkin((("x", "y"), ("u", "v")), matrix)
            report = check_branching_equivalence(structure, Team.initial(), h)
            assert report.agree
            agreements += 1
        assert agreements == 50

        violations = 0
        for team in enumerate_teams(("x", "u", "v"), range(2)):
            if not key_implication_check(team).respected:
                violations += 1
        space = [tuple(r) for r in itertools.product(range(3), repeat=3)]
        for _ in range(10_000):
            team = Team(("x", "u", "v"), rng.sample(space, rng.randint(0, 9)))
            if not key_implication_check(team).respected:
                violations += 1
        assert violations == 0


def test_criterion_09_weak_condition_counterexample():
    with criterion(9, "weak-condition counterexample search", 120):
        found = find_weak_condition_counterexample(3, 27)
        assert found is not None
        team = found.team
        assert satisfies_dep(team, ("x", "u"), ("v",))
        assert satisfies_ind(team, ("v",), (), ("x",))
        assert not satisfies_dep(team, ("u",), ("v",))
        assert evaluate(
            found.structure,
            team,
            parse_formula("dep(x u ; v) and ind(v ;; x)"),
        )
        assert not evaluate(found.structure, team, parse_formula("dep(u ; v)"))

        assert find_weak_condition_counterexample(3, 27, strong=True) is None


def test_criterion_10_empty_team_and_flatness():
    with criterion(10, "empty-team law and flatness", 60):
        rng = random.Random(1010)
        satisfied = 0
        for _ in range(500):
            size = rng.randint(1, 3)
            structure = random_structure(rng, size, {"R": 2})
            f = random_formula(
                rng, ["x", "y"], depth=rng.randint(1, 4), relations={"R": 2}
            )
            empty = Team(("x", "y"))
            if evaluate(structure, empty, f) and evaluate(
                structure, empty, f, mode="strict"
            ):
                satisfied += 1
        assert satisfied == 500

        for _ in range(100):
            size = rng.randint(1, 3)
            structure = random_structure(rng, size, {"R": 2})
            team = random_team(rng, size, ("x", "y"), max_rows=5)
            f = random_fo_formula(rng, ["x", "y"], depth=3, relations={"R": 2})
            for mode in ("lax", "strict"):
                whole = evaluate(structure, team, f, mode=mode)
                pointwise = all(
                    evaluate(structure, Team(team.scope, [r]), f, mode=mode)
                    for r in team.rows
                )
                assert whole == pointwise
