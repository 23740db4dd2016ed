"""Team algebra and text-format tests."""

import itertools
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from teamlogic.core import (
    Structure,
    Team,
    duplicate,
    enumerate_teams,
    format_structure,
    format_team,
    parse_structure,
    parse_team,
    splits,
    supplement,
    team_to_relation,
)
from teamlogic.errors import ParseError, ScopeError, SearchSpaceError


def coin_team():
    return Team(("x", "y"), [(0, 0), (0, 1), (1, 0), (1, 1)])


class TestStructure:
    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            Structure([])

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Structure(["a", "b"], {"R": (2, [("a",)])})

    def test_unknown_element_rejected(self):
        with pytest.raises(ValueError):
            Structure(["a"], constants={"c": "missing"})

    # format_structure would write each of these names into a file that
    # parse_structure rejects or reads back as other elements.
    @pytest.mark.parametrize("name", ["a,b", "#x", "a b", "()"])
    def test_unreadable_element_name_rejected(self, name):
        with pytest.raises(ValueError, match=re.escape(f"domain element {name!r}")):
            Structure([name, "c"])

    def test_interning(self):
        s = Structure(["a", "b", "c"], {"R": (2, [("a", "b")])}, {"c0": "a"})
        assert s.id_of("b") == 1
        assert s.relations["R"] == frozenset({(0, 1)})
        assert s.constants["c0"] == 0


class TestTeamBasics:
    def test_rows_canonical(self):
        t = Team(("x",), [(1,), (0,), (1,)])
        assert t.rows == ((0,), (1,))

    def test_initial_team(self):
        t = Team.initial()
        assert t.scope == () and t.rows == ((),)

    def test_empty_team_is_valid(self):
        assert Team(("x", "y")).is_empty

    def test_row_arity_checked(self):
        with pytest.raises(ValueError):
            Team(("x", "y"), [(0,)])

    def test_positions_unknown_var(self):
        with pytest.raises(ScopeError):
            coin_team().positions(("z",))


class TestDuplicate:
    def test_singleton_initial(self):
        s = Structure.plain(2)
        t = duplicate(Team.initial(), "x", s)
        assert t.scope == ("x",) and t.rows == ((0,), (1,))

    def test_empty_team(self):
        s = Structure.plain(3)
        assert duplicate(Team(("x",)), "y", s).is_empty

    def test_cardinality(self):
        # |X| * |M| by direct enumeration over a 2-row team and 3 elements.
        s = Structure.plain(3)
        t = duplicate(Team(("x",), [(0,), (1,)]), "y", s)
        assert t.scope == ("x", "y")
        assert len(t.rows) == 6

    def test_overwrite_existing_variable(self):
        s = Structure.plain(2)
        t = duplicate(Team(("x",), [(0,)]), "x", s)
        assert t.rows == ((0,), (1,))


class TestSupplement:
    def test_copy_function(self):
        s = Team(("x",), [(0,)])
        t = supplement(s, "y", lambda r: {r[0]})
        assert t.scope == ("x", "y") and t.rows == ((0, 0),)

    def test_empty_team(self):
        assert supplement(Team(("x",)), "y", lambda a: {0}).is_empty

    def test_lax_choice_sets(self):
        t = supplement(Team(("x",), [(0,), (1,)]), "y", lambda a: {0, 1})
        assert len(t.rows) == 4

    def test_empty_choice_rejected(self):
        with pytest.raises(ValueError):
            supplement(Team(("x",), [(0,)]), "y", lambda a: set())

    def test_strict_requires_singletons(self):
        with pytest.raises(ValueError):
            supplement(Team(("x",), [(0,)]), "y", lambda a: {0, 1}, strict=True)

    def test_overwrite_existing_variable(self):
        t = supplement(Team(("x", "y"), [(0, 1)]), "x", lambda r: {r[1]})
        assert t.scope == ("x", "y") and t.rows == ((1, 1),)


class TestSplits:
    def test_empty_team_single_split(self):
        pairs = list(splits(Team(("x",)), "strict"))
        assert pairs == [(Team(("x",)), Team(("x",)))]

    def test_single_row_strict(self):
        assert len(list(splits(Team(("x",), [(0,)]), "strict"))) == 2

    def test_counts_two_rows(self):
        t = Team(("x",), [(0,), (1,)])
        assert len(list(splits(t, "lax"))) == 9
        assert len(list(splits(t, "strict"))) == 4

    @given(st.integers(min_value=0, max_value=6))
    def test_counts_and_cover(self, n):
        t = Team(("x",), [(i,) for i in range(n)])
        lax = list(splits(t, "lax"))
        strict = list(splits(t, "strict"))
        assert len(lax) == 3**n
        assert len(strict) == 2**n
        for left, right in strict:
            assert set(left.rows) | set(right.rows) == set(t.rows)
            assert not set(left.rows) & set(right.rows)
        for left, right in lax:
            assert set(left.rows) | set(right.rows) == set(t.rows)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            list(splits(Team(("x",)), "eager"))


class TestEnumerateTeams:
    def test_single_var_single_element(self):
        teams = list(enumerate_teams(("x",), range(1)))
        assert len(teams) == 2

    def test_two_vars_two_elements(self):
        assert len(list(enumerate_teams(("x", "y"), range(2)))) == 16

    def test_three_vars(self):
        assert len(list(enumerate_teams(("x", "y", "z"), range(2)))) == 256

    def test_max_rows(self):
        teams = list(enumerate_teams(("x",), range(2), max_rows=1))
        assert len(teams) == 1 + 2

    def test_cap(self):
        with pytest.raises(SearchSpaceError):
            enumerate_teams(("x", "y", "z"), range(4), cap=1000)

    def test_deterministic_and_unique(self):
        teams = list(enumerate_teams(("x", "y"), range(2)))
        assert teams == list(enumerate_teams(("x", "y"), range(2)))
        assert len(set(teams)) == len(teams)


class TestRelations:
    def test_empty(self):
        assert team_to_relation(Team(("x",)), ("x",)) == frozenset()

    def test_singleton(self):
        t = Team(("x", "y"), [(0, 1)])
        assert team_to_relation(t, ("x", "y")) == frozenset({(0, 1)})

    def test_coin_full_square(self):
        assert team_to_relation(coin_team(), ("x", "y")) == frozenset(
            itertools.product(range(2), repeat=2)
        )

    def test_unknown_variable(self):
        with pytest.raises(ScopeError):
            team_to_relation(coin_team(), ("z",))

    @given(
        st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=9)
    )
    def test_round_trip(self, rel):
        team = Team(("x", "y"), rel)
        assert team_to_relation(team, ("x", "y")) == frozenset(rel)


@given(
    st.sets(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=4),
)
def test_duplicate_then_project_restores_rows(rows):
    s = Structure.plain(2)
    team = Team(("x", "y"), rows)
    extended = duplicate(team, "z", s)
    assert team_to_relation(extended, ("x", "y")) == frozenset(team.rows)
    assert len(extended.rows) == len(team.rows) * 2


class TestStructureFormat:
    def test_round_trip_value(self):
        s = Structure(
            ["a", "b", "c"],
            {"R": (2, [("a", "b"), ("b", "c")]), "P": (1, [])},
            {"c0": "a"},
        )
        assert parse_structure(format_structure(s)) == s

    def test_round_trip_text(self):
        text = "domain: a b c\nrelation P/1:\nrelation R/2: (a,b) (b,c)\nconstant c0 = a\n"
        assert format_structure(parse_structure(text)) == text

    def test_comments_and_blanks(self):
        text = "# header\n\ndomain: a b  # trailing\nconstant c0 = a\n"
        s = parse_structure(text)
        assert s.elements == ("a", "b") and s.constants == {"c0": 0}

    def test_missing_domain(self):
        with pytest.raises(ParseError):
            parse_structure("relation R/1: (a)\n")

    def test_bad_tuple(self):
        with pytest.raises(ParseError):
            parse_structure("domain: a\nrelation R/1: a\n")

    # Each arity is the one the tuple would have with its empty components
    # dropped, so only the empty component itself can be the error.
    @pytest.mark.parametrize("tok, arity", [("(0,,1)", 2), ("(,1)", 1), ("(0,)", 1), ("(,)", 0)])
    def test_empty_component_rejected(self, tok, arity):
        with pytest.raises(ParseError, match=re.escape(f"malformed tuple '{tok}'")):
            parse_structure(f"domain: 0 1\nrelation R/{arity}: {tok}\n")

    def test_unreadable_element_name_is_a_parse_error(self):
        with pytest.raises(ParseError, match=re.escape("domain element 'a(b'")):
            parse_structure("domain: a(b c\n")

    def test_arity_zero_tuple(self):
        s = parse_structure("domain: 0\nrelation T/0: ()\nrelation F/0:\n")
        assert s.relations == {"T": frozenset({()}), "F": frozenset()}


class TestTeamFormat:
    def test_round_trip_value(self):
        s = Structure.plain(2)
        team = coin_team()
        assert parse_team(format_team(team, s), s) == team

    def test_round_trip_text(self):
        s = Structure.plain(2)
        text = "vars: x y\n0 0\n1 1\n"
        assert format_team(parse_team(text, s), s) == text

    def test_empty_scope_round_trip(self):
        s = Structure.plain(1)
        text = format_team(Team.initial(), s)
        assert text == "vars:\n()\n"
        assert parse_team(text, s) == Team.initial()

    def test_empty_team(self):
        s = Structure.plain(2)
        assert parse_team("vars: x y\n", s) == Team(("x", "y"))

    def test_wrong_width(self):
        with pytest.raises(ParseError):
            parse_team("vars: x y\n0\n", Structure.plain(2))

    def test_unknown_element(self):
        with pytest.raises(ParseError):
            parse_team("vars: x\n7\n", Structure.plain(2))

