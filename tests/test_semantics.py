"""Team evaluation: atom clauses, connective search, validity."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamlogic.core import (
    Structure,
    Team,
    duplicate,
    enumerate_teams,
    format_structure,
    splits,
    subsets,
    supplement,
)
from teamlogic.errors import BudgetExceededError, LogicError, ScopeError, SearchSpaceError
from teamlogic.generators import (
    estimate_eval_cost,
    random_fo_formula,
    random_formula,
    random_structure,
    random_team,
)
from teamlogic import semantics
from teamlogic.semantics import (
    _Evaluator,
    evaluate,
    satisfies_dep,
    satisfies_ind,
    sentence_sat,
    validity_search,
)
from teamlogic.syntax import (
    And,
    DepAtom,
    Eq,
    Exists,
    Forall,
    IndAtom,
    Not,
    Or,
    Var,
    desugar_henkin,
    free_vars,
    is_first_order,
    parse_formula,
    subformulas,
)

S2 = Structure.plain(2)
COIN = Team(("x", "y"), [(0, 0), (0, 1), (1, 0), (1, 1)])
VALID_SENTENCE = parse_formula("forall x. forall y. exists z. (ind(z ;; x) and z = y)")
INVALID_SENTENCE = parse_formula("forall x. exists y. exists z. (ind(z ;; x) and z = x)")


class TestAtoms:
    def test_coin_independent(self):
        assert evaluate(S2, COIN, parse_formula("ind(x ;; y)"))

    def test_constant_variable_independent_of_everything(self):
        team = Team(("x", "y"), [(0, 0), (0, 1)])
        assert evaluate(S2, team, parse_formula("ind(x ;; y)"))
        assert evaluate(S2, team, parse_formula("ind(x ;; x)"))

    def test_dep_examples(self):
        dep = parse_formula("dep(x ; y)")
        assert not evaluate(S2, Team(("x", "y"), [(0, 0), (0, 1)]), dep)
        assert evaluate(S2, Team(("x", "y")), dep)
        for row in itertools.product(range(2), repeat=2):
            assert evaluate(S2, Team(("x", "y"), [row]), dep)

    def test_diagonal_not_independent(self):
        team = Team(("x", "y"), [(0, 0), (1, 1)])
        assert not evaluate(S2, team, parse_formula("ind(x ;; y)"))

    def test_negated_fo_atom_pointwise(self):
        team = Team(("x", "y"), [(0, 1), (1, 0)])
        assert evaluate(S2, team, parse_formula("not x = y"))
        assert not evaluate(S2, COIN, parse_formula("not x = y"))

    def test_negated_dependency_atom_needs_empty_team(self):
        f = parse_formula("not dep(x ; y)")
        assert evaluate(S2, Team(("x", "y")), f)
        assert not evaluate(S2, Team(("x", "y"), [(0, 0)]), f)

    def test_unbound_variable_rejected(self):
        with pytest.raises(ScopeError):
            evaluate(S2, Team(("x",), [(0,)]), parse_formula("x = y"))

    def test_unknown_relation_rejected(self):
        with pytest.raises(LogicError):
            evaluate(S2, Team(("x",), [(0,)]), parse_formula("R(x)"))

    def test_arity_mismatch_rejected(self):
        s = Structure(["a"], {"R": (1, [("a",)])})
        with pytest.raises(LogicError):
            evaluate(s, Team(("x",), [(0,)]), parse_formula("R(x, x)"))

    def test_sugar_rejected(self):
        with pytest.raises(LogicError):
            evaluate(S2, Team(("x",), [(0,)]), parse_formula("exists z/{x}. z = z"))

    def test_constants_in_atoms(self):
        s = Structure(["a", "b"], constants={"C": "b"})
        team = Team(("x",), [(1,)])
        assert evaluate(s, team, parse_formula("x = C"))

    def test_constant_equality_on_empty_scope(self):
        s = Structure(["a", "b"], constants={"C": "a", "D": "a", "E": "b"})
        assert evaluate(s, Team.initial(), parse_formula("C = D"))
        assert not evaluate(s, Team.initial(), parse_formula("C = E"))


class TestConnectives:
    def test_and_shares_team(self):
        f = parse_formula("ind(x ;; y) and dep( ; x) or dep( ; y)")
        # (ind and dep(;x)) or dep(;y): covers must pay for both halves.
        team = Team(("x", "y"), [(0, 0), (0, 1)])
        assert evaluate(S2, team, f)

    def test_or_needs_cover(self):
        f = parse_formula("dep( ; x) or dep( ; x)")  # x constant on each half
        assert evaluate(S2, Team(("x",), [(0,), (1,)]), f)
        f2 = parse_formula("dep( ; x) or dep( ; y)")
        bad = Team(("x", "y"), [(0, 0), (0, 1), (1, 0)])
        assert evaluate(S2, bad, f2)

    def test_strict_vs_lax_split_counts(self):
        # dep(;x) or dep(;x) over a 3-value column needs a 3-way split.
        s3 = Structure.plain(3)
        team = Team(("x",), [(0,), (1,), (2,)])
        f = parse_formula("dep( ; x) or dep( ; x)")
        assert not evaluate(s3, team, f, mode="strict")
        assert not evaluate(s3, team, f, mode="lax")

    def test_lax_cover_may_overlap(self):
        # Two overlapping products: only a cover sharing the row (1, 1)
        # splits the team into two independent halves.
        team = Team(("x", "y"), [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)])
        f = parse_formula("ind(x ;; y) or ind(x ;; y)")
        assert evaluate(Structure.plain(3), team, f, mode="lax")
        assert not evaluate(Structure.plain(3), team, f, mode="strict")

    def test_flat_side_may_leave_the_other_side_more_rows(self):
        # R(x, y) holds on (0, 0) and (2, 1) only.  ind(x ;; y) fails on the
        # three rows R misses, but holds once it also takes (2, 1).
        s = Structure(["0", "1", "2"], {"R": (2, [(0, 0), (2, 1)])})
        team = Team(("x", "y"), [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)])
        for text in ("R(x, y) or ind(x ;; y)", "ind(x ;; y) or R(x, y)"):
            for mode in ("lax", "strict"):
                assert evaluate(s, team, parse_formula(text), mode=mode)

    def test_exists_modes(self):
        f = parse_formula("exists y. (ind(y ;; x) and dep(y ; x))")
        team = Team(("x",), [(0,), (1,)])
        assert not evaluate(S2, team, f, mode="strict")
        assert not evaluate(S2, team, f, mode="lax")
        g = parse_formula("exists y. ind(y ;; x)")
        assert evaluate(S2, team, g, mode="strict")
        assert evaluate(S2, team, g, mode="lax")

    def test_forall(self):
        f = parse_formula("forall y. ind(x ;; y)")
        assert evaluate(S2, Team(("x",), [(0,), (1,)]), f)

    def test_requantification_overwrites_column(self):
        # exists x rebinds x: the old column is unrecoverable in the body
        f = parse_formula("exists x. dep( ; x)")
        team = Team(("x",), [(0,), (1,)])
        assert evaluate(S2, team, f)

    def test_budget_aborts_search(self):
        from teamlogic.errors import BudgetExceededError

        s8 = Structure.plain(8)
        wide = Team(("x",), [(i,) for i in range(8)])
        # unsatisfiable pair of dep conjuncts (y constant but determining a
        # non-constant x) defeats every shortcut, forcing the choice search
        f = parse_formula("exists y. (dep(y ; x) and dep( ; y))")
        with pytest.raises(BudgetExceededError):
            evaluate(s8, wide, f, budget=50)

    def test_negative_budget_rejected(self):
        f = parse_formula("x = x")  # flat, so the search would spend nothing
        with pytest.raises(LogicError, match="the search budget is negative"):
            evaluate(S2, COIN, f, budget=-1)
        assert evaluate(S2, COIN, f, budget=0)

    @pytest.mark.parametrize("mode", ["lax", "strict"])
    def test_budget_aborts_cover_search(self, mode):
        # On the diagonal x = y over eight values the left disjunct, an ind
        # atom that says no dep atom, holds on single rows alone and the right
        # one on no two rows, so the cover search probes left subteams past
        # the budget.
        s8 = Structure.plain(8)
        diagonal = Team(("x", "y"), [(i, i) for i in range(8)])
        f = parse_formula("ind(x ;; y) or dep( ; x)")
        with pytest.raises(BudgetExceededError):
            evaluate(s8, diagonal, f, mode=mode, budget=50)

    @pytest.mark.parametrize("mode", ["lax", "strict"])
    def test_pair_route_spends_one_candidate_per_probed_subteam(self, mode):
        # Both disjuncts are dep atoms and every row pair of the team (0, i, i)
        # fails both: 2 * 16 single rows and 2 * 120 pairs are probed.
        s16 = Structure.plain(16)
        team = Team(("x", "y", "z"), [(0, i, i) for i in range(16)])
        f = parse_formula("dep(x ; y) or dep(x ; z)")
        assert not evaluate(s16, team, f, mode=mode, budget=272)
        with pytest.raises(BudgetExceededError):
            evaluate(s16, team, f, mode=mode, budget=271)


# Records 60, 178 and 179 of the team-eval benchmark pool, all UNSAT.  A
# closed residual under exists takes singleton choices, and a flat disjunct
# fixes the rows the other disjunct must take, so each is decided within a
# budget of 1,000 probes; a search without these narrowings needs 2,402,
# 6,422 and 5,852.
_R3 = Structure(["0", "1", "2"], {"R": (2, [(0, 1), (1, 2), (2, 0), (2, 1)])})
_EIGHT_ROWS = Team(("x", "y"), [r for r in itertools.product(range(3), repeat=2) if r != (2, 2)])
_MIXED = (
    "(dep(; y x) or R(y, x) or dep(; y x) and R(y, y)) and "
    "((ind(y ; ; y x) or ind(y x ; x ; x y)) and (R(y, x) and not x = y))"
)


@pytest.mark.parametrize(
    "structure, team, text, mode",
    [
        (
            Structure(["0", "1", "2"], {"R": (2, [(0, 0), (0, 1), (1, 0), (2, 0), (2, 2)])}),
            Team(("x", "y"), [(0, 0), (0, 2), (2, 0), (2, 1)]),
            "exists q1. forall q2. dep(; y)",
            "lax",
        ),
        (_R3, _EIGHT_ROWS, _MIXED, "lax"),
        (_R3, _EIGHT_ROWS, _MIXED, "strict"),
    ],
    ids=["record-60", "record-178", "record-179"],
)
def test_narrowed_searches_fit_a_small_budget(structure, team, text, mode):
    assert not evaluate(structure, team, parse_formula(text), mode=mode, budget=1000)


def test_memo_keeps_only_the_live_search_path():
    # No lax choice of z works on these four rows, so every choice fails and
    # the verdicts made under it go with it; keeping them all took 3,088
    # entries on four rows and 138 MB on six.
    f = parse_formula("exists z. (ind(z ;; x) and ind(x ;; z) and dep(z ; x))")
    team = Team(("x", "y"), list(itertools.product(range(3), repeat=2))[:4])
    evaluator = _Evaluator(Structure.plain(3), "lax", 10**7)
    assert not evaluator.eval(team, f)
    assert len(evaluator.memo) <= 4


@pytest.mark.parametrize("inner", ["x = x", "not x = x"])
def test_vacuous_row_quantifiers_decide_their_body_once(monkeypatch, inner):
    # Only the innermost of twelve nested quantifiers binds a variable its
    # body uses; trying both values at every level takes over 4,096 calls.
    calls = 0
    row_satisfies = _Evaluator._row_satisfies

    def counted(self, f, scope, row):
        nonlocal calls
        calls += 1
        return row_satisfies(self, f, scope, row)

    monkeypatch.setattr(_Evaluator, "_row_satisfies", counted)
    f = parse_formula("forall x. exists x. " * 6 + inner)
    assert evaluate(Structure.plain(2), Team.initial(), f) == (inner == "x = x")
    assert calls <= 3 * 12


def test_lax_choices_fit_a_small_budget():
    # The first lax choices are the singletons, and one of them works; a
    # search that tries the full extension first spends 20,687 probes.
    s = Structure(["0", "1"], {"R": (2, [(0, 1), (1, 1)])})
    team = Team(("x", "y"), list(itertools.product(range(2), repeat=2)))
    f = parse_formula("exists z. not R(x, z) or not R(y, x) or (exists q1. ind(x ; z ; x z))")
    assert evaluate(s, team, f, budget=10)


def test_lax_countermodel_fits_a_small_budget():
    # Validity-pool record 142: the same countermodel as with the default
    # budget, found within 100 probes per structure.
    sentence = parse_formula(
        "exists x. exists y. forall q1. (not R(q1, y) or ind(q1 y ; x ; q1 y)) "
        "and (dep(; x y) and x = y)"
    )
    result = validity_search(sentence, 2, "lax", budget=100)
    assert format_structure(result.countermodel) == (
        "domain: 0 1\nrelation R/2: (0,0) (0,1) (1,0) (1,1)\n"
    )


class TestSentences:
    def test_valid_sentence_all_sizes(self):
        for size in (1, 2, 3, 4):
            for mode in ("lax", "strict"):
                assert sentence_sat(Structure.plain(size), VALID_SENTENCE, mode)

    def test_invalid_sentence_only_size_one(self):
        for size in (1, 2, 3):
            for mode in ("lax", "strict"):
                expected = size == 1
                assert sentence_sat(Structure.plain(size), INVALID_SENTENCE, mode) == expected

    def test_non_sentence_rejected(self):
        with pytest.raises(LogicError):
            sentence_sat(S2, parse_formula("x = x"))


class TestValiditySearch:
    def test_valid_up_to_four(self):
        result = validity_search(VALID_SENTENCE, 4)
        assert result.valid_up_to_bound

    def test_countermodel_size_two(self):
        result = validity_search(INVALID_SENTENCE, 4)
        assert result.countermodel is not None
        assert result.countermodel.size == 2

    def test_trivial_sentence(self):
        assert validity_search(parse_formula("exists x. x = x"), 3).valid_up_to_bound

    def test_relational_vocabulary(self):
        # forall x. R(x) fails on some one-element structure already.
        result = validity_search(parse_formula("forall x. R(x)"), 2)
        assert result.countermodel is not None
        assert result.countermodel.size == 1

    def test_sentence_checked_once_per_search(self, monkeypatch):
        """The closed-sentence, sugar and vocabulary checks run once per
        search, not once per structure, and flatness is decided once per
        node across structures."""
        sentence = parse_formula("forall x. exists y. (dep(x ; y) and (R(x, y) or not R(x, y)))")
        calls = {}

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("free_vars", "contains_sugar", "subformulas", "check_vocabulary",
                     "is_first_order"):
            counted(semantics, name)
        structures = []
        inner_structures = semantics._structures_of_size

        def recorded(size, signature):
            for structure in inner_structures(size, signature):
                structures.append(structure)
                yield structure

        monkeypatch.setattr(semantics, "_structures_of_size", recorded)
        assert validity_search(sentence, 2).valid_up_to_bound
        assert len(structures) == 18  # 2 tables for R on one element, 16 on two
        assert calls["free_vars"] == calls["contains_sugar"] == calls["subformulas"] == 1
        assert "check_vocabulary" not in calls
        assert calls["is_first_order"] <= len(list(subformulas(sentence)))

    def test_structure_cap_is_exact(self):
        sentence = parse_formula("forall x. R(x, x)")  # 2 + 16 + 512 tables on sizes 1-3
        assert validity_search(sentence, 3, max_structures=530).countermodel is not None
        with pytest.raises(SearchSpaceError, match="cap of 529 structures"):
            validity_search(sentence, 3, max_structures=529)

    def test_sugar_rejected_before_the_structure_cap(self):
        sentence = parse_formula("forall x. exists y/{x}. R(x, y)")
        with pytest.raises(LogicError, match="rewritten first"):
            validity_search(sentence, 4, max_structures=1)

    def test_constants_error_wins_over_two_arities(self):
        sentence = parse_formula("forall x. (R(x) or R(x, x)) and x = C")
        with pytest.raises(LogicError, match="equality-and-relation vocabularies only"):
            validity_search(sentence, 2)
        with pytest.raises(LogicError, match="'R' used with two arities"):
            validity_search(parse_formula("forall x. R(x) or R(x, x)"), 2)


class TestInvariants:
    def test_downward_closure_of_dep(self):
        dep = parse_formula("dep(x ; y)")
        for team in enumerate_teams(("x", "y"), range(2)):
            if evaluate(S2, team, dep):
                for k in range(len(team.rows)):
                    for sub in itertools.combinations(team.rows, k):
                        assert evaluate(S2, Team(team.scope, sub), dep)

    def test_independence_not_downward_closed(self):
        ind = parse_formula("ind(x ;; y)")
        sub = Team(("x", "y"), [(0, 0), (0, 1), (1, 0)])
        assert evaluate(S2, COIN, ind)
        assert not evaluate(S2, sub, ind)

    def test_symmetry(self):
        for team in enumerate_teams(("x", "y", "z"), range(2)):
            a = satisfies_ind(team, ("x",), ("z",), ("y",))
            b = satisfies_ind(team, ("y",), ("z",), ("x",))
            assert a == b

    def test_constancy_equivalence(self):
        for team in enumerate_teams(("x", "y"), range(2)):
            constant = len({r[0] for r in team.rows}) <= 1
            assert satisfies_ind(team, ("x",), (), ("x",)) == constant

    def test_dependence_equals_self_independence(self):
        # dep(x;y) iff ind(y ; x ; y), spot-checked on two-variable teams.
        for team in enumerate_teams(("x", "y"), range(2)):
            assert satisfies_dep(team, ("x",), ("y",)) == satisfies_ind(
                team, ("y",), ("x",), ("y",)
            )


class TestExistsAgainstBruteForce:
    """The class-wise decision for a single independence conjunct must match
    a direct enumeration of choice functions."""

    @staticmethod
    def _oracle(structure, team, var, condition, other, flats):
        domain = tuple(structure.domain_ids())
        scope2 = team.scope + (var,)
        rows = team.rows
        if not rows:
            return True
        subsets = [
            combo
            for k in range(1, len(domain) + 1)
            for combo in itertools.combinations(domain, k)
        ]
        for choice in itertools.product(subsets, repeat=len(rows)):
            ext = Team(scope2, [r + (a,) for r, vals in zip(rows, choice) for a in vals])
            if not satisfies_ind(ext, (var,), condition, other):
                continue
            ok = True
            for flat in flats:
                if not evaluate(structure, ext, flat):
                    ok = False
                    break
            if ok:
                return True
        return False

    def test_exhaustive_small_instances(self):
        s = Structure.plain(2)
        flat_pool = [None, parse_formula("z = x"), parse_formula("not z = y")]
        shapes = [((), ("x",)), (("x",), ("y",)), (("y",), ("x",)), ((), ("x", "y"))]
        for team in enumerate_teams(("x", "y"), range(2), max_rows=3):
            for condition, other in shapes:
                for flat in flat_pool:
                    ind_atom = parse_formula(
                        f"ind(z ; {' '.join(condition)} ; {' '.join(other)})"
                    )
                    if flat is None:
                        formula = Exists("z", ind_atom)
                        flats = []
                    else:
                        formula = Exists("z", And(ind_atom, flat))
                        flats = [flat]
                    expected = self._oracle(s, team, "z", condition, other, flats)
                    assert evaluate(s, team, formula) == expected, (
                        team.rows,
                        condition,
                        other,
                        flat,
                    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_empty_team_satisfies_random_formulas(seed):
    rng = random.Random(seed)
    structure = random_structure(rng, rng.randint(1, 3), {"R": 2})
    f = random_formula(rng, ["x", "y"], depth=rng.randint(1, 4), relations={"R": 2})
    assert evaluate(structure, Team(("x", "y")), f)
    assert evaluate(structure, Team(("x", "y")), f, mode="strict")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_flatness_of_first_order_formulas(seed):
    rng = random.Random(seed)
    size = rng.randint(1, 3)
    structure = random_structure(rng, size, {"R": 2})
    team = random_team(rng, size, ("x", "y"), max_rows=5)
    f = random_formula(
        rng, ["x", "y"], depth=3, relations={"R": 2}, allow_dependency_atoms=False
    )
    for mode in ("lax", "strict"):
        whole = evaluate(structure, team, f, mode=mode)
        pointwise = all(
            evaluate(structure, Team(team.scope, [r]), f, mode=mode) for r in team.rows
        )
        assert whole == pointwise


class _SplitsReference(_Evaluator):
    """The plain route: ``or`` loops over every cover from ``core.splits``,
    and first-order quantifiers extend the team instead of going row by row."""

    def _eval(self, team, f):
        if isinstance(f, Or):
            return any(
                self.eval(left, f.left) and self.eval(right, f.right)
                for left, right in splits(team, self.mode)
            )
        if isinstance(f, Forall):
            return self.eval(duplicate(team, f.var, self.structure), f.body)
        if isinstance(f, Exists):
            return self._eval_exists(team, f)
        return super()._eval(team, f)


def _small_instance(rng, make_formula):
    """A structure of size 2-3, a team of at most 5 rows and a formula whose
    plain evaluation stays cheap (at most 7 rows under any disjunction)."""
    while True:
        size = rng.randint(2, 3)
        structure = random_structure(rng, size, {"R": 2})
        team = random_team(rng, size, ("x", "y"), max_rows=5)
        f = make_formula(rng, ["x", "y"], rng.randint(1, 4), relations={"R": 2})
        if estimate_eval_cost(f, len(team), size) <= 5000:
            return structure, team, f


def _random_disjunction(rng, variables, depth, relations):
    """A disjunction at the root, so that every example searches covers."""
    return Or(
        random_formula(rng, variables, depth, relations=relations),
        random_formula(rng, variables, depth, relations=relations),
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_cover_search_matches_plain_splits(seed):
    structure, team, f = _small_instance(random.Random(seed), _random_disjunction)
    for mode in ("lax", "strict"):
        expected = _SplitsReference(structure, mode, 10**7).eval(team, f)
        assert evaluate(structure, team, f, mode=mode) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_row_by_row_matches_plain_splits_on_first_order(seed):
    structure, team, f = _small_instance(random.Random(seed), random_fo_formula)
    for mode in ("lax", "strict"):
        expected = _SplitsReference(structure, mode, 10**7).eval(team, f)
        assert evaluate(structure, team, f, mode=mode) == expected


def _extensions(structure, team, var, mode):
    """The team extended by every choice function for the variable, applied
    through ``core.supplement``: non-empty value sets under lax semantics,
    singletons under strict."""
    domain = tuple(structure.domain_ids())
    if mode == "lax":
        options = tuple(subsets(domain))[1:]
    else:
        options = tuple((a,) for a in domain)
    for choice in itertools.product(options, repeat=len(team)):
        chosen = dict(zip(team.rows, choice))
        yield supplement(team, var, lambda r: chosen[r], mode == "strict")


def _choice_oracle(structure, team, var, body, mode):
    """Does some choice function extend the team to one satisfying the body?"""
    return any(
        evaluate(structure, extended, body, mode=mode)
        for extended in _extensions(structure, team, var, mode)
    )


class _PlainReference(_SplitsReference):
    """The plain route for every non-flat node: covers from ``core.splits``
    and every choice function of ``exists``, with no closedness narrowing
    and no class-by-class decision.  Flat nodes are decided row by row,
    which the tests above check against the plain route."""

    def _eval(self, team, f):
        if self._flat(f):
            return _Evaluator._eval(self, team, f)
        if isinstance(f, Exists):
            return any(
                self.eval(extended, f.body)
                for extended in _extensions(self.structure, team, f.var, self.mode)
            )
        return super()._eval(team, f)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_choice_search_matches_plain_supplement(seed):
    """``exists`` over a body with dependency atoms against the plain
    enumeration of choice functions.  The quantified variable is either new
    or re-quantified, so its column is appended or overwritten."""
    rng = random.Random(seed)
    structure = random_structure(rng, 2, {"R": 2})
    team = random_team(rng, 2, ("x", "y"), max_rows=4)
    var = rng.choice(("z", "x"))
    while True:
        body = random_formula(rng, ["x", "y", var], rng.randint(1, 3), relations={"R": 2})
        f = Exists(var, body)
        if not is_first_order(body) and estimate_eval_cost(f, len(team), 2) <= 5000:
            break
    for mode in ("lax", "strict"):
        expected = _choice_oracle(structure, team, var, body, mode)
        assert evaluate(structure, team, f, mode=mode) == expected


def _contains_ind(f) -> bool:
    return any(isinstance(node, IndAtom) for node in subformulas(f))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6))
def test_lax_matches_strict_without_ind(seed):
    """A formula with no ind is downward closed, so lax semantics agrees
    with strict.  The narrowed lax searches must match the plain lax covers,
    the plain lax choice functions and strict evaluation."""
    rng = random.Random(seed)
    structure = random_structure(rng, 2, {"R": 2})
    team = random_team(rng, 2, ("x", "y"), max_rows=4)
    var = rng.choice(("z", "x"))
    while True:
        body = random_formula(rng, ["x", "y", var], rng.randint(1, 4), relations={"R": 2})
        f = Exists(var, body)
        if (
            not is_first_order(body)
            and not _contains_ind(body)
            and estimate_eval_cost(f, len(team), 2) <= 5000
        ):
            break
    lax = evaluate(structure, team, f)
    assert lax == _SplitsReference(structure, "lax", 10**7).eval(team, f)
    assert lax == _choice_oracle(structure, team, var, body, "lax")
    assert lax == evaluate(structure, team, f, mode="strict")


def _flat_sided_disjunction(rng, variables, depth, relations):
    """A disjunction of a first-order formula and one that is not, in
    either order."""
    flat = random_fo_formula(rng, variables, depth, relations=relations)
    while True:
        other = random_formula(rng, variables, depth, relations=relations)
        if not is_first_order(other):
            break
    return Or(flat, other) if rng.random() < 0.5 else Or(other, flat)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_flat_sided_cover_search_matches_plain_splits(seed):
    structure, team, f = _small_instance(random.Random(seed), _flat_sided_disjunction)
    for mode in ("lax", "strict"):
        expected = _SplitsReference(structure, mode, 10**7).eval(team, f)
        assert evaluate(structure, team, f, mode=mode) == expected


def test_choice_search_needs_value_sets_under_lax():
    # z must split the y values of the x = 0 rows and still be independent
    # of x, so the x = 1 row needs both values at once: only a set-valued
    # choice works.  Random formulas over two elements rarely need one.
    team = Team(("x", "y"), [(0, 0), (0, 1), (1, 0)])
    body = parse_formula("dep(x z ; y) and ind(x ;; z)")
    for mode, expected in (("lax", True), ("strict", False)):
        assert _choice_oracle(S2, team, "z", body, mode) is expected
        assert evaluate(S2, team, Exists("z", body), mode=mode) is expected


_GROUPS = (("x",), ("y",), ("x", "y"))


def _lax_separating_instance(rng):
    """``exists z. ind(z ;; S) and dep(S z ; T)`` with S and T drawn from
    x, y and x y, on a team of 2-4 rows over a domain of 2-3 elements.
    z must be independent of S and yet, with S, determine T; under lax
    semantics a set-valued choice of z can do both where singletons cannot."""
    size = rng.randint(2, 3)
    team = random_team(rng, size, ("x", "y"), max_rows=4, min_rows=2)
    s, t = rng.choice(_GROUPS), rng.choice(_GROUPS)
    body = And(IndAtom(("z",), (), s), DepAtom(s + ("z",), t))
    return Structure.plain(size), team, body


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_choice_search_matches_plain_supplement_on_lax_shape(seed):
    structure, team, body = _lax_separating_instance(random.Random(seed))
    for mode in ("lax", "strict"):
        expected = _choice_oracle(structure, team, "z", body, mode)
        assert evaluate(structure, team, Exists("z", body), mode=mode) == expected


def test_lax_shape_separates_the_modes():
    separated = 0
    for seed in range(100):
        structure, team, body = _lax_separating_instance(random.Random(seed))
        f = Exists("z", body)
        separated += evaluate(structure, team, f) != evaluate(structure, team, f, mode="strict")
    assert separated >= 5


def _ind_conjunction(rng, var, scope):
    """``ind(v ; C ; O) and phi`` for v = var, phi first-order, and C and O
    splitting the other given variables in a random order; either side of
    the atom may hold v.  Half the time C and O leave one variable d out,
    so that the atom misses a free variable, and phi is ``v = d or psi``:
    where psi fails, rows that agree on C and O but not on d need different
    values of v."""
    names = [n for n in scope if n != var]
    rng.shuffle(names)
    left_out = names.pop() if rng.random() < 0.5 else None
    cut = rng.randint(0, len(names))
    atom = IndAtom((var,), tuple(names[:cut]), tuple(names[cut:]))
    if rng.random() < 0.5:
        atom = IndAtom(atom.right, atom.condition, atom.left)
    if left_out is None:
        phi = random_fo_formula(rng, [*scope, var], 2, relations={"R": 2})
    else:
        psi = random_fo_formula(rng, names, 1, relations={"R": 2})
        phi = Or(Eq(Var(var), Var(left_out)), psi)
    return And(atom, phi)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_ind_existentials_match_the_plain_route(seed):
    """``exists z. Q w. exists v. (ind(v ; C ; O) and phi)`` on a team over
    x y, with Q either quantifier and v new or re-quantifying x."""
    rng = random.Random(seed)
    structure = random_structure(rng, 2, {"R": 2})
    team = random_team(rng, 2, ("x", "y"), max_rows=2, min_rows=1)
    var = rng.choice(("v", "x"))
    body = _ind_conjunction(rng, var, ("x", "y", "z", "w"))
    f = Exists("z", rng.choice((Forall, Exists))("w", Exists(var, body)))
    for mode in ("lax", "strict"):
        expected = _PlainReference(structure, mode, 10**7).eval(team, f)
        assert evaluate(structure, team, f, mode=mode) == expected
        assert _choice_oracle(structure, team, "z", f.body, mode) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_ind_existential_closed_only_where_downward_closed(seed):
    """``exists v. (ind(v ; C ; O) and phi)`` over x y w on a team of 2-6
    rows over x y w t, where no conjunct mentions t: where the evaluator
    classes the node closed, the plain route finds it true on every subteam
    of a team it holds on."""
    rng = random.Random(seed)
    structure = random_structure(rng, 2, {"R": 2})
    team = random_team(rng, 2, ("x", "y", "w", "t"), max_rows=6, min_rows=2)
    var = rng.choice(("v", "x"))
    f = Exists(var, _ind_conjunction(rng, var, ("x", "y", "w")))
    for mode in ("lax", "strict"):
        reference = _PlainReference(structure, mode, 10**7)
        assert evaluate(structure, team, f, mode=mode) == reference.eval(team, f)
        if reference._closed(f) and reference.eval(team, f):
            for rows in subsets(team.rows):
                assert reference.eval(Team(team.scope, rows), f)


def test_ind_existential_needs_its_free_variables_covered():
    # v = w ties v to w, which the atom leaves out: v is independent of x
    # on the full (x, w) team but not on the subteam 00, 11, so the node
    # is not downward closed, in either mode.
    f = parse_formula("exists v. (ind(v ; ; x) and v = w)")
    full = Team(("x", "w"), [(0, 0), (0, 1), (1, 0), (1, 1)])
    sub = Team(("x", "w"), [(0, 0), (1, 1)])
    for mode in ("lax", "strict"):
        assert evaluate(S2, full, f, mode=mode) and not evaluate(S2, sub, f, mode=mode)
    assert not _Evaluator(S2, "lax", 0)._closed(f)
    # Its twin conditions on w, so the atom names both free variables: the
    # node is closed and holds on every subteam of the full team.
    twin = parse_formula("exists v. (ind(v ; w ; x) and v = w)")
    assert _Evaluator(S2, "lax", 0)._closed(twin)
    for mode in ("lax", "strict"):
        for rows in subsets(full.rows):
            assert evaluate(S2, Team(full.scope, rows), twin, mode=mode)
    # Rows 001 and 011 agree on x but need different values of v, and row
    # 101 takes either; a set of values per row is then needed, so the
    # class-by-class decision, exact under lax semantics, is wrong under
    # strict semantics on this node, which is not closed.
    f = parse_formula("exists v. (ind(v ; ; x) and (v = w or x = y))")
    team = Team(("x", "w", "y"), [(0, 0, 1), (0, 1, 1), (1, 0, 1)])
    assert evaluate(S2, team, f) and not evaluate(S2, team, f, mode="strict")
    assert _PlainReference(S2, "strict", 10**7).eval(team, f) is False


def test_branch_rung_spends_one_candidate_per_singleton_choice():
    # The branch rewrite's atom names every free variable of its inner
    # existential, so that node is closed: exists y tries the 4**4 singleton
    # choices and exists v is decided class by class in both modes: 256
    # candidates, where a search of y's value sets takes 50,625 and a strict
    # search of v one more per choice of y.
    cycle = Structure([str(i) for i in range(4)], {"R": (2, [(i, (i + 1) % 4) for i in range(4)])})
    f = desugar_henkin(parse_formula("branch {forall x exists y ; forall u exists v}. v = x"))
    for mode in ("lax", "strict"):
        assert not evaluate(cycle, Team.initial(), f, mode=mode, budget=256)
        with pytest.raises(BudgetExceededError):
            evaluate(cycle, Team.initial(), f, mode=mode, budget=255)


def _dep_shaped_ind(rng, pool):
    """``ind(L ; C ; R)`` with L - C inside R, sides in a random order: it
    says ``dep(C ; L - C)``."""
    condition = tuple(rng.sample(pool, rng.randint(0, min(2, len(pool) - 1))))
    rest = tuple(rng.sample([v for v in pool if v not in condition], 1))
    left = rest + tuple(rng.sample(condition, rng.randint(0, len(condition))))
    others = [v for v in pool if v not in rest]
    right = rest + tuple(rng.sample(others, rng.randint(0, min(2, len(others)))))
    atom = IndAtom(left, condition, right)
    return IndAtom(right, condition, left) if rng.random() < 0.5 else atom


def _dep_atom(rng, pool):
    return DepAtom(tuple(rng.sample(pool, rng.randint(0, 1))), tuple(rng.sample(pool, 1)))


def _coherent_formula(rng, pool, depth):
    """A formula of the 2-coherent grammar: dep atoms, dep-shaped ind atoms,
    negated atoms and first-order formulas, joined by `and`, `forall` and
    `or` with a first-order side."""
    kinds = ["dep", "ind", "not", "flat"] + (["and", "forall", "or"] if depth else [])
    kind = rng.choice(kinds)
    if kind == "dep":
        return _dep_atom(rng, pool)
    if kind == "ind":
        return _dep_shaped_ind(rng, pool)
    if kind == "not":
        atom = random_formula(rng, pool, 1, relations={"R": 2})
        return atom if isinstance(atom, Not) else Not(atom)
    if kind == "flat":
        return random_fo_formula(rng, pool, 2, relations={"R": 2})
    if kind == "and":
        return And(_coherent_formula(rng, pool, depth - 1), _coherent_formula(rng, pool, depth - 1))
    if kind == "forall":
        var = f"q{depth}"
        return Forall(var, _coherent_formula(rng, [*pool, var], depth - 1))
    flat = random_fo_formula(rng, pool, 1, relations={"R": 2})
    other = _coherent_formula(rng, pool, depth - 1)
    return Or(flat, other) if rng.random() < 0.5 else Or(other, flat)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_pair_route_matches_plain_splits(seed):
    """A disjunction of two 2-coherent sides, neither first-order, on a
    team of up to 8 rows over x y z: the 2-SAT route against every cover."""
    rng = random.Random(seed)
    size = rng.randint(2, 3)
    structure = random_structure(rng, size, {"R": 2})
    team = random_team(rng, size, ("x", "y", "z"), max_rows=8)
    while True:
        f = Or(*(_coherent_formula(rng, ["x", "y", "z"], rng.randint(0, 2)) for _ in "lr"))
        if (
            not (is_first_order(f.left) or is_first_order(f.right))
            and estimate_eval_cost(f, len(team), size) <= 20_000
        ):
            break
    for mode in ("lax", "strict"):
        evaluator = _Evaluator(structure, mode, 10**7)
        assert evaluator._coherent(f.left) and evaluator._coherent(f.right)
        expected = _SplitsReference(structure, mode, 10**7).eval(team, f)
        assert evaluator.eval(team, f) == expected


_SQUARE = tuple(itertools.product(range(2), repeat=2))


def _coherence_gap(structure, f):
    """A team of at most 4 rows over x y and a mode where the plain route's
    verdict differs from its verdicts on the subteams of at most two rows,
    or None."""
    for mode in ("lax", "strict"):
        plain = _PlainReference(structure, mode, 10**7)
        for rows in subsets(_SQUARE):
            small = [sub for k in (1, 2) for sub in itertools.combinations(rows, k)]
            whole = plain.eval(Team(("x", "y"), rows), f)
            if whole != all(plain.eval(Team(("x", "y"), sub), f) for sub in small):
                return rows, mode
    return None


@pytest.mark.parametrize(
    "text, coherent",
    [
        ("ind(x y ; x ; x y)", True),
        ("forall q. (dep(; q) or not x = y)", True),
        ("x = y or (dep(x ; y) and not ind(x ;; y))", True),
        ("ind(x ;; y)", False),
        ("ind(x ;; x) or ind(y ;; y)", False),
        ("dep(; x) or dep(; y)", False),
    ],
)
def test_coherence_class_on_small_teams(text, coherent):
    # The cases classed otherwise do differ from their pair subteams.
    f = parse_formula(text)
    assert _Evaluator(S2, "lax", 0)._coherent(f) == coherent
    assert (_coherence_gap(S2, f) is None) == coherent


def _mixed_formula(rng, pool, depth):
    """The 2-coherent grammar, plus ind atoms that say no dep atom (disjoint
    outer sides, no condition) and disjunctions of any two sides."""
    roll = rng.randrange(4) if depth else 0
    if roll == 0 and rng.random() < 0.3:
        names = rng.sample(pool, len(pool))
        cut = rng.randint(1, len(names) - 1)
        return IndAtom(tuple(names[:cut]), (), tuple(names[cut:]))
    if roll == 0:
        return _coherent_formula(rng, pool, 0)
    if roll == 3:
        var = f"q{depth}"
        return Forall(var, _mixed_formula(rng, [*pool, var], depth - 1))
    parts = (_mixed_formula(rng, pool, depth - 1) for _ in "lr")
    return Or(*parts) if roll == 1 else And(*parts)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_coherence_class_matches_pair_subteams(seed):
    """Every node over x y that the evaluator classes 2-coherent holds on
    each team of at most 4 rows over {0, 1} exactly when it holds on each
    subteam of at most two rows."""
    rng = random.Random(seed)
    structure = random_structure(rng, 2, {"R": 2})
    if rng.random() < 0.5:
        f = _mixed_formula(rng, ["x", "y"], rng.randint(1, 2))
    else:  # not 2-coherent where it reads `dep(; x) or dep(; y)`
        f = Or(_dep_atom(rng, ["x", "y"]), _dep_atom(rng, ["x", "y"]))
    for node in subformulas(f):
        if set(free_vars(node)) <= {"x", "y"} and _Evaluator(structure, "lax", 0)._coherent(node):
            assert _coherence_gap(structure, node) is None, str(node)


# Ladder rungs: the first family on its first two base teams (9 and 18 rows
# under the quantifiers) and dep(x ; y) or dep(x ; z) on 24 rows, each
# decided in milliseconds.  The cover search spent 262,142 candidates (8 s)
# on the second, and on dep(x ; y) or dep(x ; z) used up 300,000 by 20 rows.
_LADDER_FAMILY = "forall q1. forall q2. (ind(q2 y ; y ; q2 y) or dep(y ; y q1))"


@pytest.mark.parametrize("mode", ["lax", "strict"])
@pytest.mark.parametrize(
    "structure, team, text, candidates",
    [
        (Structure.plain(3), Team(("x", "y"), [(0, 0)]), _LADDER_FAMILY, 90),
        (Structure.plain(3), Team(("x", "y"), [(0, 0), (0, 1)]), _LADDER_FAMILY, 342),
        (
            Structure.plain(24),
            Team(("x", "y", "z"), [(0, i, i) for i in range(24)]),
            "dep(x ; y) or dep(x ; z)",
            600,
        ),
    ],
    ids=["family-1-row", "family-2-rows", "dep-or-dep-24-rows"],
)
def test_ladder_rungs_spend_pinned_candidates(structure, team, text, candidates, mode):
    evaluator = _Evaluator(structure, mode, 10**7)
    assert not evaluator.eval(team, parse_formula(text))
    assert 10**7 - evaluator.remaining == candidates
