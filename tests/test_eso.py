"""Second-order translation: shape, pruned evaluation, agreement.

``holds`` is a plain recursive Tarskian evaluator, the reference for the
compiled (guarded) first-order closures and for the pruned ESO search.
``hodges_holds`` is a brute-force IF semantics, the reference for the
slash rewrite.
"""

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamlogic import eso
from teamlogic.core import Structure, Team, enumerate_teams, subsets, team_to_relation
from teamlogic.errors import ScopeError, SearchSpaceError
from teamlogic.eso import check_translation, eval_eso, format_eso, translate
from teamlogic.firstorder import compile_formula
from teamlogic.generators import random_checkable_instance, random_fo_formula, random_structure
from teamlogic.semantics import evaluate
from teamlogic.syntax import (
    And,
    Eq,
    Exists,
    Forall,
    IndAtom,
    Not,
    Or,
    Rel,
    SlashedExists,
    Var,
    contains_sugar,
    desugar_slash,
    flatten,
    free_vars,
    parse_formula,
    subformulas,
)

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


def _value(t, constants, env):
    return env[t.name] if isinstance(t, Var) else constants[t.name]


def holds(f, domain, relations, constants, env) -> bool:
    """Tarskian truth of a first-order formula, by recursion on f."""
    if isinstance(f, Eq):
        return _value(f.left, constants, env) == _value(f.right, constants, env)
    if isinstance(f, Rel):
        return tuple(_value(a, constants, env) for a in f.args) in relations[f.name]
    if isinstance(f, Not):
        return not holds(f.atom, domain, relations, constants, env)
    if isinstance(f, And):
        return all(holds(g, domain, relations, constants, env) for g in (f.left, f.right))
    if isinstance(f, Or):
        return any(holds(g, domain, relations, constants, env) for g in (f.left, f.right))
    if isinstance(f, (Exists, Forall)):
        values = (holds(f.body, domain, relations, constants, {**env, f.var: a}) for a in domain)
        return any(values) if isinstance(f, Exists) else all(values)
    raise TypeError(f"not first-order: {f!r}")


def _plain_eval_eso(structure, team, sentence):
    """Every combination of tables, with the whole matrix checked at each leaf."""
    relations = dict(structure.relations)
    relations[sentence.team_symbol] = team_to_relation(team, sentence.scope)
    domain = tuple(structure.domain_ids())
    names = [name for name, _ in sentence.relation_vars]
    tables = [
        list(map(frozenset, subsets(sorted(itertools.product(domain, repeat=arity)))))
        for _, arity in sentence.relation_vars
    ]
    for choice in itertools.product(*tables):
        relations.update(zip(names, choice))
        if holds(sentence.matrix, domain, relations, structure.constants, {}):
            return True
    return False


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_conjunct_pruning_matches_plain_search(seed):
    # up to 12 relation cells, so that the cell filters meet the full product
    structure, team, f = random_checkable_instance(random.Random(seed), max_bits=12)
    sentence = translate(f, team.scope)
    assert eval_eso(structure, team, sentence) == _plain_eval_eso(structure, team, sentence)


# Quantifier blocks that meet each branch of the guard detection.
GUARD_SHAPES = [
    "forall x. forall y. (not R(x, y) or R(y, x))",
    "forall x. forall y. (not R(x, x) or x = y)",  # repeated guard variable: no guard
    "forall x. forall y. (not R(x, y) or not R(y, x) or x = y)",  # second guard only tests
    "forall x. forall y. forall z. (not R(x, y) or not P(z) or R(y, z))",
    "forall x. forall y. forall z. (not R(x, y) or not R(y, z) or R(x, z))",  # y tested by the second
    "exists x. exists y. exists z. (R(x, y) and R(y, z) and not R(z, x))",
    "forall x. forall y. (not R(x, y))",  # guards only
    "forall x. forall y. (x = y or not R(y, w) or P(x))",  # w bound outside the block
    "exists w. forall z. (not R(w, z) or P(z))",
    "forall x. forall y. forall x. (not R(x, y) or P(y))",  # shadowed x ends the block
    "forall x. (not R(x, w) or (exists x. R(x, x)))",
    "forall x. exists y. (R(x, y) and (forall y. (not R(y, x) or y = x)))",
    "exists x. exists y. (R(x, y) and not x = y)",
    "exists y. R(w, y)",
    "exists x. exists y. (R(x, y) and R(y, x) and P(x))",
    "exists x. (P(x) and (exists y. (R(y, x) and not P(y))))",
    "forall x. (not P(x, w) or x = w)",  # arity clash: no tuple of P binds
    "exists x. exists y. (P(x, y) or R(x, y))",
]


def _environments(f, domain):
    names = sorted(free_vars(f))
    for values in itertools.product(domain, repeat=len(names)):
        yield dict(zip(names, values))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_compiled_formulas_match_the_tarskian_reference(seed):
    rng = random.Random(seed)
    structure = random_structure(rng, rng.randint(1, 3), {"R": 2, "P": 1})
    domain = tuple(structure.domain_ids())
    relations = structure.relations
    formulas = [parse_formula(text) for text in GUARD_SHAPES]
    formulas += [random_fo_formula(rng, ["w"], rng.randint(2, 5), {"R": 2, "P": 1}) for _ in range(8)]
    for f in formulas:
        compiled = compile_formula(f)
        for env in _environments(f, domain):
            before = dict(env)
            assert compiled(domain, relations, {}, env) == holds(f, domain, relations, {}, env), f
            assert env == before  # bindings are restored


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_compiled_translations_match_the_tarskian_reference(seed):
    # every conjunct of a translated sentence, under random relation tables
    rng = random.Random(seed)
    structure, team, f = random_checkable_instance(rng, max_bits=16)
    sentence = translate(f, team.scope)
    relations = dict(structure.relations)
    relations[sentence.team_symbol] = team_to_relation(team, sentence.scope)
    domain = tuple(structure.domain_ids())
    for name, arity in sentence.relation_vars:
        cells = itertools.product(domain, repeat=arity)
        relations[name] = frozenset(c for c in cells if rng.random() < 0.5)
    for g in flatten(sentence.matrix, And):
        assert compile_formula(g)(domain, relations, {}, {}) == holds(g, domain, relations, {}, {})


@pytest.mark.parametrize(
    "relation_vars, matrix",
    [
        # an inclusion, and a second relation variable filtered through the first
        ((("S1", 1), ("S2", 2)),
         "(forall v1. (not S1(v1) or S(v1))) and (forall v1. forall v2. (not S2(v1, v2) or S1(v2)))"
         " and (exists v1. exists v2. (S2(v1, v2) and not R(v1, v2)))"),
        # not inclusions: a block wider than the guard, a guard whose other
        # disjuncts mention it, a repeated guard variable
        ((("S1", 1),),
         "(forall v1. forall v2. (not S1(v1) or R(v1, v2))) and (exists v1. S1(v1))"),
        ((("S1", 2),),
         "(forall v1. forall v2. (not S1(v1, v2) or not S1(v2, v1) or v1 = v2))"
         " and (exists v1. exists v2. (S1(v1, v2) and S(v2)))"),
        ((("S1", 2),),
         "(forall v1. (not S1(v1, v1) or S(v1))) and (exists v1. (S1(v1, v1) and not S(v1)))"),
    ],
)
def test_cell_filters_match_plain_search(relation_vars, matrix):
    structure = Structure(["0", "1"], {"R": (2, [(0, 1), (1, 1)])})
    sentence = eso.EsoSentence("S", 1, ("x",), relation_vars, parse_formula(matrix))
    for team in enumerate_teams(("x",), range(2)):
        assert eval_eso(structure, team, sentence) == _plain_eval_eso(structure, team, sentence)


@pytest.fixture
def counted_compiles(monkeypatch):
    """Count the calls of every closure eso compiles, from a cold plan."""
    calls = []

    def counting(f):
        compiled = compile_formula(f)

        def call(*args):
            calls.append(f)
            return compiled(*args)

        return call

    monkeypatch.setattr(eso, "compile_formula", counting)
    eso._plan.cache_clear()
    yield calls
    eso._plan.cache_clear()


def test_conjunct_pruning_cuts_the_slowest_pool_instance(counted_compiles):
    # The plain search evaluates the matrix at all 2^4 * 2^4 * 2^8 = 65,536
    # leaves before it answers UNSAT.
    structure = Structure(["0", "1"], {"R": (2, [(1, 1)])})
    team = Team(("x", "y"), [(0, 1), (1, 1)])
    f = parse_formula("x = x and ind(y x ; y ; y x) or (forall q1. x = q1)")
    assert not eval_eso(structure, team, translate(f, team.scope))
    # compiled conjuncts and cell filters called: 1,433 when each relation
    # variable tried every table of all its cells
    assert len(counted_compiles) == 106


def test_tables_drawn_from_the_allowed_cells_only(monkeypatch):
    # `or` splits {0, 1} of a 3-element domain into S1, held within the team,
    # and S2, held within the team and to `not x = x`: S1 tries its 2^2
    # tables, and after each of the 3 on which x is constant S2 tries its 2^0.
    enumerated = []

    def recording(cells):
        tables = list(subsets(cells))
        enumerated.append((len(cells), len(tables)))
        return iter(tables)

    monkeypatch.setattr(eso, "subsets", recording)
    structure = Structure.plain(3)
    team = Team(("x",), [(0,), (1,)])
    f = parse_formula("dep(; x) or not x = x")
    report = check_translation(structure, team, f)
    assert not report.eso_value and report.agree
    assert enumerated == [(2, 4), (0, 1), (0, 1), (0, 1)]


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


def hodges_holds(structure, team, f) -> bool:
    """Strict IF truth under Hodges' semantics (1997), by brute force.

    f is a prefix of ``forall``, ``exists`` and ``exists v/X`` over a
    first-order matrix.  Each existential picks v by a function of the row's
    values outside X (of the whole row, for a plain ``exists``); the team is
    a set, so rows that agree outside X take the same value.
    """
    domain = tuple(structure.domain_ids())
    rows = {frozenset(zip(team.scope, r)) for r in team.rows}

    def sat(f, rows) -> bool:
        if not contains_sugar(f):
            # first-order: true on a team exactly when true on each row
            env = structure.relations, structure.constants
            return all(holds(f, domain, *env, dict(r)) for r in rows)
        if isinstance(f, Forall):
            return sat(f.body, {r | {(f.var, a)} for r in rows for a in domain})
        if isinstance(f, (Exists, SlashedExists)):
            hidden = set(f.slashed) if isinstance(f, SlashedExists) else set()
            seen = {r: frozenset(p for p in r if p[0] not in hidden) for r in rows}
            keys = sorted(set(seen.values()), key=sorted)
            for values in itertools.product(domain, repeat=len(keys)):
                pick = dict(zip(keys, values))
                if sat(f.body, {r | {(f.var, pick[seen[r]])} for r in rows}):
                    return True
            return False
        raise TypeError(f"not an IF prefix over a first-order matrix: {f!r}")

    return sat(f, rows)


def _random_if_prefix(rng) -> SlashedExists | Exists | Forall:
    """forall / exists / exists-slash over distinct variables, free variable w."""
    names = rng.sample(["x", "y", "z"], rng.randint(1, 3))
    f = random_fo_formula(rng, ["w"] + names, rng.randint(2, 4), {"R": 2})
    for i in reversed(range(len(names))):
        kind = rng.choice(("forall", "exists", "slash"))
        if kind == "slash":
            slashed = tuple(v for v in names[:i] if rng.random() < 0.6)
            f = SlashedExists(names[i], slashed, f)
        else:
            f = (Forall if kind == "forall" else Exists)(names[i], f)
    return f


W_TEAM = Team(("w",), [(0,), (1,)])


def test_slash_may_read_a_free_team_variable():
    # z sees w, as Hodges' semantics lets it: z = w on each row.
    f = parse_formula("exists x. exists z/{x}. (x = w and z = w)")
    assert hodges_holds(S2, W_TEAM, f)
    for mode in ("lax", "strict"):
        assert evaluate(S2, W_TEAM, desugar_slash(f), mode=mode)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_slash_rewrite_matches_hodges_semantics(seed):
    rng = random.Random(seed)
    structure = random_structure(rng, 2, {"R": 2})
    for _ in range(15):
        team = Team(("w",), [r for r in W_TEAM.rows if rng.random() < 0.7])
        f = _random_if_prefix(rng)
        expected = hodges_holds(structure, team, f)
        assert evaluate(structure, team, desugar_slash(f), mode="strict") == expected, f


def _unconditional(f):
    """The slash read as ``ind(X ;; v)``: every condition of the rewrite dropped."""
    if isinstance(f, IndAtom):
        return IndAtom(f.left, (), f.right)
    return replace(f, **{field: _unconditional(getattr(f, field)) for field in f.parts})


@pytest.mark.parametrize(
    "text, readings",
    [
        # Hodges' semantics, the repo's conditional rewrite, ind(x ;; z)
        ("forall x. exists y. exists z/{x}. z = x", (True, True, False)),
        ("forall x. exists z/{x}. z = x", (False, False, False)),
        ("forall x. exists y. exists z/{x y}. z = x", (False, False, False)),
        ("forall x. forall y. exists z/{x}. z = x", (False, False, False)),
        ("forall x. exists y. exists z/{x}. z = y", (True, True, True)),
    ],
)
def test_readings_of_the_slash_side_by_side(text, readings):
    f = parse_formula(text)
    team = Team((), [()])
    rewrite = desugar_slash(f)
    assert hodges_holds(S2, team, f) == readings[0]
    for mode in ("lax", "strict"):
        assert evaluate(S2, team, rewrite, mode=mode) == readings[1]
        assert evaluate(S2, team, _unconditional(rewrite), mode=mode) == readings[2]
