"""Second-order translation: shape, brute-force evaluation, agreement."""

import random

import pytest

from teamlogic.core import Structure, Team, enumerate_teams
from teamlogic.errors import ScopeError, SearchSpaceError
from teamlogic.eso import check_translation, eval_eso, format_eso, translate
from teamlogic.generators import random_checkable_instance
from teamlogic.semantics import evaluate
from teamlogic.syntax import parse_formula, subformulas

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
