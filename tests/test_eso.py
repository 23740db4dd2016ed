"""Second-order translation: shape, conjunct-pruned evaluation, agreement."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamlogic import eso
from teamlogic.core import Structure, Team, enumerate_teams, subsets, team_to_relation
from teamlogic.errors import ScopeError, SearchSpaceError
from teamlogic.eso import check_translation, eval_eso, format_eso, translate
from teamlogic.firstorder import compile_formula
from teamlogic.generators import random_checkable_instance
from teamlogic.semantics import evaluate
from teamlogic.syntax import desugar_slash, parse_formula, subformulas

S2 = Structure.plain(2)
COIN = Team(("x", "y"), [(0, 0), (0, 1), (1, 0), (1, 1)])


class TestTranslate:
    def test_single_independence_atom_shape(self):
        sentence = translate(parse_formula("ind(x1 ; x2 ; x3)"), ("x1", "x2", "x3"))
        text = format_eso(sentence)
        assert sentence.relation_vars == ()
        assert text.startswith("exists2 .")
        # one universal block over y1..y3 z1..z3, team-membership guards,
        # the shared-condition equality, and the witness block
        assert "forall y1." in text and "forall z3." in text
        assert "not y2 = z2" in text
        assert "exists u1." in text
        assert "u2 = y2" in text and "u1 = y1" in text and "u3 = z3" in text

    def test_dep_atom_routes_through_independence(self):
        a = translate(parse_formula("dep(x1 ; x2)"), ("x1", "x2"))
        b = translate(parse_formula("ind(x2 ; x1 ; x2)"), ("x1", "x2"))
        assert a == b

    def test_fo_formula_needs_no_relation_vars(self):
        sentence = translate(parse_formula("x = y"), ("x", "y"))
        assert sentence.relation_vars == ()

    def test_connectives_and_quantifiers_add_relation_vars(self):
        sentence = translate(
            parse_formula("(dep(x ; y) or ind(x ;; y)) and (exists q. q = x)"),
            ("x", "y"),
        )
        arities = sorted(a for _, a in sentence.relation_vars)
        assert arities == [2, 2, 3]

    def test_scope_mismatch(self):
        with pytest.raises(ScopeError):
            translate(parse_formula("dep(x ; w)"), ("x", "y"))

    def test_polynomial_size(self):
        # node count <= c * |formula| * arity^2 with a small fixed c.
        for text, scope in [
            ("ind(x ; y ; z)", ("x", "y", "z")),
            ("dep(x ; y) and (ind(x ;; z) or z = y)", ("x", "y", "z")),
            ("forall q. (dep(q ; x) or q = y)", ("x", "y")),
        ]:
            f = parse_formula(text)
            sentence = translate(f, scope)
            f_nodes = sum(1 for _ in subformulas(f))
            m_nodes = sum(1 for _ in subformulas(sentence.matrix))
            assert m_nodes <= 40 * f_nodes * (len(scope) + 1) ** 2


class TestEvalEso:
    def test_coin_independent(self):
        sentence = translate(parse_formula("ind(x ;; y)"), ("x", "y"))
        assert eval_eso(S2, COIN, sentence)

    def test_diagonal_not_independent(self):
        sentence = translate(parse_formula("ind(x ;; y)"), ("x", "y"))
        assert not eval_eso(S2, Team(("x", "y"), [(0, 0), (1, 1)]), sentence)

    def test_empty_team_satisfies_everything(self):
        for text in ("ind(x ;; y)", "dep(x ; y)", "not dep(x ; y)", "x = y"):
            sentence = translate(parse_formula(text), ("x", "y"))
            assert eval_eso(S2, Team(("x", "y")), sentence)

    def test_cap(self):
        sentence = translate(parse_formula("forall q. (dep(q ; x) or q = y)"), ("x", "y"))
        with pytest.raises(SearchSpaceError):
            eval_eso(S2, COIN, sentence, max_bits=12)


class TestAgreement:
    def test_every_single_variable_atom_exhaustively(self):
        pool = ("x", "y", "z")
        atoms = [f"dep({a} ; {b})" for a in pool for b in pool]
        atoms += [f"ind({a} ; {c} ; {b})" for a in pool for b in pool for c in pool]
        atoms += [f"ind({a} ;; {b})" for a in pool for b in pool]
        teams = list(enumerate_teams(pool, range(2)))
        for text in atoms[:18]:  # full sweep lives in the acceptance suite
            f = parse_formula(text)
            sentence = translate(f, pool)
            for team in teams[::17]:
                assert eval_eso(S2, team, sentence) == evaluate(S2, team, f)

    def test_dep_exhaustive_over_two_variables(self):
        f = parse_formula("dep(x ; y)")
        sentence = translate(f, ("x", "y"))
        for team in enumerate_teams(("x", "y"), range(2)):
            assert eval_eso(S2, team, sentence) == evaluate(S2, team, f)

    def test_disjunction_with_negated_atom(self):
        # Exercises the subteam-containment axioms of the or clause.
        f = parse_formula("ind(x ;; y) or not ind(x ;; y)")
        for team in enumerate_teams(("x", "y"), range(2)):
            r = check_translation(S2, team, f)
            assert r.agree

    def test_random_compounds(self):
        rng = random.Random(20250810)
        for _ in range(8):
            structure, team, formula = random_checkable_instance(rng)
            report = check_translation(structure, team, formula)
            assert report.agree

    def test_requantification(self):
        # binding an existing scope variable overwrites its column; the
        # translation keeps the arity and relates the two relations cellwise
        for text in ("exists x. dep( ; x)", "forall x. ind(x ;; y)", "exists y. y = x"):
            f = parse_formula(text)
            for team in enumerate_teams(("x", "y"), range(2)):
                r = check_translation(S2, team, f)
                assert r.agree, (text, team.rows)


def test_relation_variables_avoid_the_formulas_relation_names():
    # A fresh relation variable named like a relation of the formula would
    # capture it; here that turned an UNSAT team verdict into eso=SAT.
    structure = Structure(["0", "1"], {"S1": (2, [])})
    team = Team(("x", "y"), [(0, 0)])
    f = parse_formula("S1(x, y) or S1(x, y)")
    sentence = translate(f, team.scope)
    assert "S1" not in dict(sentence.relation_vars)
    report = check_translation(structure, team, f)
    assert not report.team_value and report.agree


def test_team_symbol_avoids_the_formulas_relation_names():
    sentence = translate(parse_formula("S(x, y)"), ("x", "y"))
    assert sentence.team_symbol == "S0"
    assert format_eso(sentence) == "exists2 . forall v1. forall v2. not S0(v1, v2) or S(v1, v2)"
    sentence = translate(parse_formula("S(x, y) or S0(x, y)"), ("x", "y"))
    assert sentence.team_symbol == "S00"
    assert "S00" not in dict(sentence.relation_vars)


def test_team_symbol_avoids_the_structures_relation_names():
    structure = Structure(["0", "1"], {"S": (2, [(0, 1)]), "S0": (2, []), "S00": (1, [])})
    team = Team(("x", "y"), [(0, 1)])
    report = check_translation(structure, team, parse_formula("S(x, y) or S0(x, y)"))
    assert report.team_value and report.agree


def _plain_eval_eso(structure, team, sentence):
    """Every combination of tables, with the whole matrix checked at each leaf."""
    relations = dict(structure.relations)
    relations[sentence.team_symbol] = team_to_relation(team, sentence.scope)
    matrix = compile_formula(sentence.matrix)
    domain = tuple(structure.domain_ids())
    names = [name for name, _ in sentence.relation_vars]
    tables = [
        list(map(frozenset, subsets(sorted(itertools.product(domain, repeat=arity)))))
        for _, arity in sentence.relation_vars
    ]
    for choice in itertools.product(*tables):
        relations.update(zip(names, choice))
        if matrix(domain, relations, structure.constants, {}):
            return True
    return False


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_conjunct_pruning_matches_plain_search(seed):
    structure, team, f = random_checkable_instance(random.Random(seed), max_bits=10)
    sentence = translate(f, team.scope)
    assert eval_eso(structure, team, sentence) == _plain_eval_eso(structure, team, sentence)


def test_conjunct_pruning_cuts_the_slowest_pool_instance(monkeypatch):
    # The plain search evaluates the matrix at all 2^4 * 2^4 * 2^8 = 65,536
    # leaves before it answers UNSAT.
    calls = 0

    def counting(f):
        compiled = compile_formula(f)

        def call(*args):
            nonlocal calls
            calls += 1
            return compiled(*args)

        return call

    monkeypatch.setattr(eso, "compile_formula", counting)
    structure = Structure(["0", "1"], {"R": (2, [(1, 1)])})
    team = Team(("x", "y"), [(0, 1), (1, 1)])
    f = parse_formula("x = x and ind(y x ; y ; y x) or (forall q1. x = q1)")
    assert not eval_eso(structure, team, translate(f, team.scope))
    assert 0 < calls < 65_536 // 10


@pytest.mark.parametrize(
    "text, sat",
    [
        ("forall x. exists y. exists z/{x}. z = x", True),  # y passes x on to z
        ("forall x. exists z/{x}. z = x", False),
    ],
)
def test_signalling_through_a_slashed_quantifier(text, sat):
    f = desugar_slash(parse_formula(text))
    team = Team((), [()])
    for mode in ("lax", "strict"):
        assert evaluate(S2, team, f, mode=mode) == sat
    report = check_translation(S2, team, f)
    assert report.team_value == report.eso_value == sat
