"""Parser, printer, free variables, and the quantifier rewrites."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamlogic.core import Structure, Team
from teamlogic.errors import LogicError, ParseError, ScopeError
from teamlogic.semantics import evaluate
from teamlogic.syntax import (
    And,
    Const,
    DepAtom,
    DepStatement,
    Eq,
    Exists,
    Forall,
    Henkin,
    IndAtom,
    IndStatement,
    Not,
    Or,
    Rel,
    SlashedExists,
    Var,
    _tokenize,
    contains_sugar,
    desugar_henkin,
    desugar_slash,
    format_atom_statement,
    format_formula,
    free_vars,
    is_first_order,
    parse_atom_statement,
    parse_atoms_text,
    parse_formula,
)


class TestParser:
    def test_quantified_sentence(self):
        f = parse_formula("forall x. forall y. exists z. (ind(z ;; x) and z = y)")
        assert f == Forall(
            "x",
            Forall(
                "y",
                Exists(
                    "z",
                    And(IndAtom(("z",), (), ("x",)), Eq(Var("z"), Var("y"))),
                ),
            ),
        )

    def test_dep_atom(self):
        assert parse_formula("dep(x y ; z)") == DepAtom(("x", "y"), ("z",))

    def test_slashed_exists(self):
        f = parse_formula("exists z/{x}. z = x")
        assert f == SlashedExists("z", ("x",), Eq(Var("z"), Var("x")))

    def test_branch(self):
        f = parse_formula("branch {forall x exists y ; forall u exists v}. R(x, y, u, v)")
        assert isinstance(f, Henkin)
        assert f.rows == (("x", "y"), ("u", "v"))

    def test_precedence(self):
        f = parse_formula("x = x and y = y or z = z")
        assert isinstance(f, Or) and isinstance(f.left, And)

    def test_quantifier_extends_to_end(self):
        f = parse_formula("forall x. x = x and x = x")
        assert isinstance(f, Forall) and isinstance(f.body, And)

    def test_constant_term(self):
        f = parse_formula("x = C")
        assert f == Eq(Var("x"), Const("C"))

    def test_relation_atom(self):
        assert parse_formula("R(x, C)") == Rel("R", (Var("x"), Const("C")))

    def test_empty_tuples(self):
        assert parse_formula("dep( ; x)") == DepAtom((), ("x",))
        assert parse_formula("ind(u ; ; v)") == IndAtom(("u",), (), ("v",))

    def test_negation_of_atom(self):
        assert parse_formula("not x = y") == Not(Eq(Var("x"), Var("y")))
        assert parse_formula("not dep(x ; y)") == Not(DepAtom(("x",), ("y",)))

    def test_negation_of_non_atom_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_formula("not (x = y and y = z)")
        assert "atomic" in str(err.value)

    def test_slash_on_forall_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("forall x/{y}. x = x")

    def test_error_positions(self):
        with pytest.raises(ParseError) as err:
            parse_formula("forall x x = x")
        assert err.value.line == 1
        assert err.value.column is not None

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_formula("x = y )")

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_formula, "x = y $", "line 1, column 7: unexpected character '$'"),
            (parse_formula, "x = y é", "line 1, column 7: unexpected character 'é'"),
            (parse_formula, "ind(x ; ; éé)", "line 1, column 11: unexpected character 'é'"),
            (parse_formula, "forall x.\n",
             "line 2, column 1: expected an atomic formula but found 'end of input'"),
            (parse_formula, "forall x/{y}. x = x",
             "line 1, column 9: the slash is only legal on 'exists'"),
            (parse_formula, "x = y and\n  z",
             "line 2, column 4: expected '=' but found 'end of input'"),
            (parse_formula, "branch {forall x exists y}. x = y",
             "line 1, column 26: expected ';' but found '}'"),
            (parse_formula, "branch {forall x exists y ; forall u v}. x = y",
             "line 1, column 38: expected 'exists' but found 'v'"),
            (parse_formula, "x = y )", "line 1, column 7: unexpected trailing input ')'"),
            (parse_formula, "not (x = y)",
             "line 1, column 5: negation is only allowed in front of atomic formulas"),
            (parse_formula, "forall X. x = x", "line 1, column 8: expected 'var' but found 'X'"),
            (parse_formula, "forall x x = x", "line 1, column 10: expected '.' but found 'x'"),
            (parse_formula, "exists y/{x. y = y", "line 1, column 12: expected '}' but found '.'"),
            (parse_formula, "R(x, )", "line 1, column 6: expected a term but found ')'"),
            (parse_formula, "exists x. dep x", "line 1, column 15: expected '(' but found 'x'"),
            (parse_formula, "ind(x ; y)", "line 1, column 10: expected ';' but found ')'"),
            (parse_formula, "dep(x ; y", "line 1, column 10: expected ')' but found 'end of input'"),
            (parse_formula, "", "line 1, column 1: expected an atomic formula but found 'end of input'"),
            (parse_formula, "x = y # and z\n or",
             "line 2, column 4: expected an atomic formula but found 'end of input'"),
            (parse_atom_statement, "dep(x ; y) z", "line 1, column 12: unexpected trailing input 'z'"),
            (parse_atom_statement, "x = y", "expected a dep(...) or ind(...) atom"),
            (parse_atoms_text, "dep(x ; y)\nind(x ; y)\n",
             "line 2, column 10: expected ';' but found ')'"),
            (parse_atoms_text, "dep(x ; y)\n    ind(x ; y)\n",
             "line 2, column 14: expected ';' but found ')'"),
            (parse_atoms_text, "# premises\n\n  x = y\n",
             "line 3, column 3: expected a dep(...) or ind(...) atom"),
        ],
    )
    def test_error_texts(self, parse, text, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message

    # Every line break str.splitlines knows ends a line (CRLF, a lone CR, a
    # form feed, \x0b, \x1c), a tab is one column, and the end token sits
    # just past the last line, comment included.
    @pytest.mark.parametrize(
        "text, tokens",
        [
            ("forall x. # a comment\n  dep(x ; y) # or ind(",
             [("forall", "forall", 1, 1), ("var", "x", 1, 8), (".", ".", 1, 9),
              ("dep", "dep", 2, 3), ("(", "(", 2, 6), ("var", "x", 2, 7), (";", ";", 2, 9),
              ("var", "y", 2, 11), (")", ")", 2, 12), ("end", "end of input", 2, 23)]),
            ("x = y\r\nand\r\n  R(x, C)",
             [("var", "x", 1, 1), ("=", "=", 1, 3), ("var", "y", 1, 5), ("and", "and", 2, 1),
              ("name", "R", 3, 3), ("(", "(", 3, 4), ("var", "x", 3, 5), (",", ",", 3, 6),
              ("name", "C", 3, 8), (")", ")", 3, 9), ("end", "end of input", 3, 10)]),
            ("x = y\rand z = x",
             [("var", "x", 1, 1), ("=", "=", 1, 3), ("var", "y", 1, 5), ("and", "and", 2, 1),
              ("var", "z", 2, 5), ("=", "=", 2, 7), ("var", "x", 2, 9),
              ("end", "end of input", 2, 10)]),
            ("exists x.\x0cx = x",
             [("exists", "exists", 1, 1), ("var", "x", 1, 8), (".", ".", 1, 9),
              ("var", "x", 2, 1), ("=", "=", 2, 3), ("var", "x", 2, 5),
              ("end", "end of input", 2, 6)]),
            ("\tind(x\t;\t; y)",
             [("ind", "ind", 1, 2), ("(", "(", 1, 5), ("var", "x", 1, 6), (";", ";", 1, 8),
              (";", ";", 1, 10), ("var", "y", 1, 12), (")", ")", 1, 13),
              ("end", "end of input", 1, 14)]),
            ("x_1' = Y2\x0b or\x1cz = z",
             [("var", "x_1'", 1, 1), ("=", "=", 1, 6), ("name", "Y2", 1, 8), ("or", "or", 2, 2),
              ("var", "z", 3, 1), ("=", "=", 3, 3), ("var", "z", 3, 5),
              ("end", "end of input", 3, 6)]),
            ("", [("end", "end of input", 1, 1)]),
            ("# only a comment", [("end", "end of input", 1, 17)]),
        ],
    )
    def test_token_positions(self, text, tokens):
        assert _tokenize(text) == tokens

    @pytest.mark.parametrize(
        "text, line, column",
        [("\tx = \té", 1, 7), ("x = y\r\n  é", 2, 3), ("x = y\x0c\t1", 2, 2)],
    )
    def test_bad_character_position(self, text, line, column):
        with pytest.raises(ParseError) as err:
            _tokenize(text)
        assert (err.value.line, err.value.column) == (line, column)

    def test_not_constructor_guard(self):
        with pytest.raises(LogicError):
            Not(And(Eq(Var("x"), Var("x")), Eq(Var("y"), Var("y"))))


class TestAtomStatements:
    def test_parse(self):
        assert parse_atom_statement("dep(x y ; z)") == DepAtom(("x", "y"), ("z",))
        assert parse_atom_statement("ind(u ; ; v)") == IndAtom(("u",), (), ("v",))

    def test_reject_fo_atom(self):
        with pytest.raises(ParseError):
            parse_atom_statement("x = y")

    def test_atoms_file(self):
        text = "# premises\ndep(x ; y)\n\nind(a ; b ; c)\n"
        atoms = parse_atoms_text(text)
        assert atoms == (
            DepAtom(("x",), ("y",)),
            IndAtom(("a",), ("b",), ("c",)),
        )

    def test_set_view_equality(self):
        a = parse_atom_statement("dep(x y y ; z)")
        b = parse_atom_statement("dep(y x ; z)")
        assert a != b and a.canonical() == b.canonical()

    def test_format_matches_file_style(self):
        assert str(DepAtom(("x", "y"), ("z",))) == "dep(x y ; z)"
        assert format_formula(IndAtom(("u",), (), ("v",))) == "ind(u ; ; v)"

    def test_deprecated_aliases(self):
        assert DepStatement is DepAtom and IndStatement is IndAtom
        assert format_atom_statement is format_formula
        atom = IndStatement(("u",), (), ("v",))
        assert format_atom_statement(atom) == str(atom) == "ind(u ; ; v)"


class TestFreeVars:
    def test_dep_atom(self):
        assert free_vars(DepAtom(("x",), ("y",))) == ("x", "y")

    def test_quantifier_binds(self):
        f = Forall("x", IndAtom(("z",), (), ("x",)))
        assert free_vars(f) == ("z",)

    def test_branch_binds_all_rows(self):
        f = parse_formula("branch {forall x exists y ; forall u exists v}. R(x, y, u, v) and w = w")
        assert free_vars(f) == ("w",)

    def test_slashed_vars_count_as_occurrences(self):
        f = parse_formula("exists z/{x}. z = z")
        assert free_vars(f) == ("x",)


class TestDesugarSlash:
    def test_signaling_sentence(self):
        f = parse_formula("forall x. exists y. exists z/{x}. z = x")
        expected = parse_formula("forall x. exists y. exists z. (ind(x ; y ; z) and z = x)")
        assert desugar_slash(f) == expected

    def test_no_slashes_unchanged(self):
        f = parse_formula(
            "forall x. exists y. dep(x ; y) and (branch {forall u exists v ; forall a exists b}. v = x)"
        )
        assert desugar_slash(f) is f

    def test_empty_dependency_tuple(self):
        f = parse_formula("forall x. exists z/{x}. z = z")
        expected = parse_formula("forall x. exists z. (ind(x ;; z) and z = z)")
        assert desugar_slash(f) == expected

    def test_idempotent(self):
        f = parse_formula("forall x. exists y. exists z/{x}. z = x")
        once = desugar_slash(f)
        assert desugar_slash(once) == once
        assert not contains_sugar(once)

    def test_unbound_slashed_var_rejected(self):
        with pytest.raises(ScopeError):
            desugar_slash(parse_formula("exists z/{x}. z = z"))

    def test_outermost_unbound_slashed_var_named(self):
        with pytest.raises(ScopeError, match="'x'"):
            desugar_slash(parse_formula("exists z/{x}. exists w/{y}. z = w"))

    def test_free_team_variable_joins_condition(self):
        # z may read w, which is neither bound nor slashed.
        f = parse_formula("exists x. exists z/{x}. (x = w and z = w)")
        expected = parse_formula("exists x. exists z. (ind(x ; w ; z) and (x = w and z = w))")
        assert desugar_slash(f) == expected

    def test_condition_names_each_variable_once(self):
        f = parse_formula("forall x. forall y. forall y. exists z/{x}. z = y")
        expected = parse_formula("forall x. forall y. forall y. exists z. (ind(x ; y ; z) and z = y)")
        assert desugar_slash(f) == expected

    def test_closed_sentences_stay_closed(self):
        f = parse_formula("forall x. exists y. exists z/{x}. z = x")
        assert free_vars(f) == ()
        assert free_vars(desugar_slash(f)) == ()


class TestDesugarHenkin:
    def test_closed_matrix(self):
        f = parse_formula("branch {forall x exists y ; forall u exists v}. R(x, y, u, v)")
        expected = parse_formula(
            "forall x. exists y. forall u. exists v. (ind(x y ; u ; v) and R(x, y, u, v))"
        )
        assert desugar_henkin(f) == expected

    def test_extra_free_variable_joins_condition(self):
        f = parse_formula("branch {forall x exists y ; forall u exists v}. S(x, y, u, v, w)")
        g = desugar_henkin(f)
        inner = g.body.body.body.body  # forall/exists/forall/exists
        assert inner.left == IndAtom(("x", "y"), ("u", "w"), ("v",))

    def test_is_the_slashed_prefix_it_abbreviates(self):
        # Under a quantifier, the condition lists the outer variable first,
        # in binding order, whether or not the matrix uses it.
        for text in ("R(x, y, u, v) and w = w", "exists a. S(a, v, w, x, y)"):
            slashed = f"forall x. exists y. forall u. exists v/{{x y}}. {text}"
            for outer in ("", "forall a. ", "exists b. forall a. "):
                branch = f"{outer}branch {{forall x exists y ; forall u exists v}}. {text}"
                assert desugar_henkin(parse_formula(branch)) == desugar_slash(
                    parse_formula(outer + slashed)
                )

    def test_duplicate_bound_variable_rejected(self):
        with pytest.raises(LogicError):
            desugar_henkin(Henkin((("x", "y"), ("x", "v")), Eq(Var("x"), Var("x"))))

    def test_more_than_two_rows_rejected(self):
        with pytest.raises(LogicError):
            Henkin(
                (("a", "b"), ("c", "d"), ("e", "f")),
                Eq(Var("a"), Var("a")),
            )

    def test_idempotent_on_rewritten(self):
        f = parse_formula("branch {forall x exists y ; forall u exists v}. v = u")
        once = desugar_henkin(f)
        assert desugar_henkin(once) is once

    def test_no_branching_unchanged(self):
        f = parse_formula("forall x. exists y/{x}. (dep(x ; y) or not x = y)")
        assert desugar_henkin(f) is f


def test_deep_quantifier_chain_is_walked():
    # The walkers recurse one frame per level of nesting, as the evaluator
    # does, so a chain it can check passes through each of them.  One
    # element keeps the first-order check linear in the depth.
    f = Eq(Var("x"), Var("x"))
    for _ in range(480):
        f = Forall("x", f)
    assert desugar_henkin(desugar_slash(f)) is f
    assert not contains_sugar(f) and is_first_order(f)
    assert evaluate(Structure.plain(1), Team.initial(), f)


# ---------------------------------------------------------------------------
# Round-trip property: print then parse is the identity on ASTs.
# ---------------------------------------------------------------------------

_vars = st.sampled_from(["x", "y", "z", "u", "w"])
_var_tuples = st.lists(_vars, max_size=3).map(tuple)
_terms = st.one_of(_vars.map(Var), st.sampled_from(["C", "D"]).map(Const))


def _atoms():
    return st.one_of(
        st.builds(Eq, _terms, _terms),
        st.builds(Rel, st.sampled_from(["R", "S"]), st.lists(_terms, min_size=1, max_size=3).map(tuple)),
        st.builds(DepAtom, _var_tuples, _var_tuples),
        st.builds(IndAtom, _var_tuples, _var_tuples, _var_tuples),
    )


def _formulas():
    return st.recursive(
        st.one_of(_atoms(), _atoms().map(Not)),
        lambda inner: st.one_of(
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Exists, _vars, inner),
            st.builds(Forall, _vars, inner),
            st.builds(SlashedExists, _vars, _var_tuples, inner),
            st.builds(
                Henkin,
                st.just((("x", "y"), ("u", "v"))),
                inner,
            ),
        ),
        max_leaves=12,
    )


@settings(max_examples=300, deadline=None)
@given(_formulas())
def test_parse_after_print_is_identity(f):
    assert parse_formula(format_formula(f)) == f


@settings(max_examples=150, deadline=None)
@given(_formulas())
def test_print_after_parse_is_stable(f):
    text = format_formula(f)
    assert format_formula(parse_formula(text)) == text
