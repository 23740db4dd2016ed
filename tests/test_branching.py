"""Branching prefixes: Skolem search, compositional agreement, hierarchy."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamlogic import branching
from teamlogic.branching import (
    check_branching_equivalence,
    find_weak_condition_counterexample,
    henkin_eval_skolem,
    key_implication_check,
)
from teamlogic.core import Structure, Team, enumerate_teams
from teamlogic.errors import BudgetExceededError, LogicError, ScopeError, SearchSpaceError
from teamlogic.generators import random_fo_formula, random_structure
from teamlogic.semantics import evaluate, satisfies_dep, satisfies_ind
from teamlogic.syntax import Henkin, desugar_henkin, free_vars, parse_formula

EMPTY = Team.initial()


def branch(matrix_text):
    return parse_formula(
        "branch {forall x exists y ; forall u exists v}. " + matrix_text
    )


class TestSkolemSearch:
    def test_identity_matrix(self):
        for size in (1, 2, 3):
            assert henkin_eval_skolem(Structure.plain(size), EMPTY, branch("y = x and v = u"))

    def test_cross_dependence_fails(self):
        # v would have to follow x, but it may only see u.
        assert not henkin_eval_skolem(Structure.plain(2), EMPTY, branch("v = x"))
        assert henkin_eval_skolem(Structure.plain(1), EMPTY, branch("v = x"))

    def test_other_cross_dependence_fails(self):
        assert not henkin_eval_skolem(Structure.plain(2), EMPTY, branch("y = u"))

    def test_domain_cap(self):
        with pytest.raises(SearchSpaceError):
            henkin_eval_skolem(Structure.plain(6), EMPTY, branch("y = x"), max_domain=5)

    def test_matrix_must_be_first_order(self):
        with pytest.raises(LogicError):
            henkin_eval_skolem(Structure.plain(2), EMPTY, branch("dep(x ; y)"))

    @pytest.mark.parametrize("rows", [[], [(0,), (1,)]])
    def test_team_must_have_one_row(self, rows):
        team = Team(("w",), rows)
        for check in (henkin_eval_skolem, check_branching_equivalence):
            with pytest.raises(LogicError, match=f"one-row team, got {len(rows)} rows"):
                check(Structure.plain(2), team, branch("v = w"))

    def test_free_variables_need_assignment(self):
        with pytest.raises(ScopeError):
            henkin_eval_skolem(Structure.plain(2), EMPTY, branch("v = w"))
        s = Structure.plain(2)
        assert henkin_eval_skolem(s, Team(("w",), [(0,)]), branch("v = w"))


class TestAgreement:
    def test_tautology(self):
        r = check_branching_equivalence(Structure.plain(2), EMPTY, branch("x = x"))
        assert r.skolem and r.compositional

    def test_cross_dependence_both_false(self):
        r = check_branching_equivalence(Structure.plain(2), EMPTY, branch("v = x"))
        assert not r.skolem and not r.compositional and r.agree

    def test_exhaustive_unary_relation_instances(self):
        # every interpretation of one unary predicate at |M| = 2,
        # against a fixed family of matrices
        matrices = [
            "P(y) and v = u",
            "P(v) or y = x",
            "v = x and P(u)",
            "not P(y) or v = u",
            "P(x) or P(v)",
        ]
        for table in itertools.chain.from_iterable(
            itertools.combinations(range(2), k) for k in range(3)
        ):
            structure = Structure(["0", "1"], {"P": (1, [(i,) for i in table])})
            for text in matrices:
                report = check_branching_equivalence(structure, EMPTY, branch(text))
                assert report.agree, (table, text)

    def test_random_matrices_small_domains(self):
        rng = random.Random(99)
        for _ in range(12):
            size = rng.randint(2, 3)
            structure = random_structure(rng, size, {"R": 2})
            matrix = random_fo_formula(
                rng, ["x", "y", "u", "v"], depth=2, relations={"R": 2}
            )
            h = Henkin((("x", "y"), ("u", "v")), matrix)
            assert check_branching_equivalence(structure, EMPTY, h).agree

    @pytest.mark.parametrize("mode", ["lax", "strict"])
    def test_lax_choice_of_y_does_not_signal_x(self, mode):
        # Several y per x under lax semantics must not let v learn x:
        # the rewrite makes v independent of the pair (x, y) given u.
        structure = Structure(
            ["0", "1", "2"], {"R": (2, [(0, 2), (1, 1), (2, 0), (2, 1)])}
        )
        report = check_branching_equivalence(
            structure, EMPTY, branch("v = x or R(u, y)"), mode=mode
        )
        assert not report.skolem and not report.compositional


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 10**6))
def test_skolem_matches_compositional(seed):
    """Random two-row prefixes over domains of 1-3 elements, at the empty
    assignment or at one that assigns a variable free in the matrix."""
    rng = random.Random(seed)
    size = rng.randint(1, 3)
    structure = random_structure(rng, size, {"R": 2})
    assignment, names = EMPTY, ["x", "y", "u", "v"]
    if rng.random() < 0.5:
        assignment, names = Team(("w",), [(rng.randrange(size),)]), names + ["w"]
    while True:
        matrix = random_fo_formula(rng, names, rng.randint(1, 3), relations={"R": 2})
        if set(assignment.scope) <= set(free_vars(matrix)):
            break
    h = Henkin((("x", "y"), ("u", "v")), matrix)
    for mode in ("lax", "strict"):
        assert check_branching_equivalence(structure, assignment, h, mode=mode).agree


def test_unused_assigned_variable_keeps_singleton_choices():
    # The rewrite's atom names every free variable of exists v, so an
    # assigned w the matrix does not use leaves that node closed: exists y
    # tries 3**3 singleton choices with or without the w column.
    h = branch("v = x")
    s = Structure.plain(3)
    w = Team(("w",), [(0,)])
    for mode in ("lax", "strict"):
        assert check_branching_equivalence(s, w, h, mode=mode).agree
    f = desugar_henkin(h)
    for team in (Team.initial(), w):
        for mode in ("lax", "strict"):
            assert not evaluate(s, team, f, mode=mode, budget=27)
            with pytest.raises(BudgetExceededError):
                evaluate(s, team, f, mode=mode, budget=26)


def test_equivalence_team_is_the_whole_assignment(monkeypatch):
    # The one-row team keeps every assigned variable, used by the matrix
    # (z) or not (w).
    teams = []
    real = branching.evaluate

    def evaluate_spy(structure, team, *args, **kwargs):
        teams.append(team)
        return real(structure, team, *args, **kwargs)

    monkeypatch.setattr(branching, "evaluate", evaluate_spy)
    w = Team(("w", "z"), [(0, 1)])
    report = check_branching_equivalence(Structure.plain(3), w, branch("v = x or v = z"))
    assert report.agree
    assert [(t.scope, t.rows) for t in teams] == [(("w", "z"), ((0, 1),))]


class TestKeyImplication:
    def test_respected_everywhere_on_two_values(self):
        for team in enumerate_teams(("x", "u", "v"), range(2)):
            assert key_implication_check(team).respected

    def test_vacuous_case(self):
        # premise already fails: v = (x + u) mod 3 on all 9 cells
        rows = [(a, b, (a + b) % 3) for a in range(3) for b in range(3)]
        team = Team(("x", "u", "v"), rows)
        report = key_implication_check(team)
        assert not report.premise and report.respected

    def test_scope_checked(self):
        with pytest.raises(ScopeError):
            key_implication_check(Team(("x", "u"), [(0, 0)]))


class TestConditionHierarchy:
    def test_joint_condition_implies_conditional(self):
        # independence of (u v) from x outright gives v from x given u
        for team in enumerate_teams(("x", "u", "v"), range(2)):
            if satisfies_ind(team, ("u", "v"), (), ("x",)):
                assert satisfies_ind(team, ("v",), ("u",), ("x",))

    def test_conditional_does_not_imply_joint(self):
        witnesses = [
            team
            for team in enumerate_teams(("x", "u", "v"), range(2))
            if satisfies_ind(team, ("v",), ("u",), ("x",))
            and not satisfies_ind(team, ("u", "v"), (), ("x",))
        ]
        assert witnesses

    def test_conditional_does_not_imply_plain(self):
        witnesses = [
            team
            for team in enumerate_teams(("x", "u", "v"), range(2))
            if satisfies_ind(team, ("v",), ("u",), ("x",))
            and not satisfies_ind(team, ("v",), (), ("x",))
        ]
        assert witnesses


class TestWeakConditionSearch:
    def test_counterexample_found_and_verified(self):
        result = find_weak_condition_counterexample(3, 27)
        assert result is not None
        team = result.team
        assert satisfies_dep(team, ("x", "u"), ("v",))
        assert satisfies_ind(team, ("v",), (), ("x",))
        assert not satisfies_dep(team, ("u",), ("v",))
        assert "2-element domain" in result.note

    def test_strong_condition_finds_nothing(self):
        assert find_weak_condition_counterexample(3, 27, strong=True) is None

    def test_single_value_domain_finds_nothing(self):
        assert find_weak_condition_counterexample(1, 27) is None
