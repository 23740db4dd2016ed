"""End-to-end CLI checks: outputs, exit codes, determinism."""

import contextlib
import hashlib
import io
import random
import re
import time

import pytest

from teamlogic.atoms import RULE_CHECKERS, DerivationTrace, TraceStep
from teamlogic.cli import main
from teamlogic.syntax import parse_atom_statement, parse_atoms_text


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "s2.structure").write_text("domain: 0 1\n")
    (tmp_path / "coin.team").write_text("vars: x y\n0 0\n0 1\n1 0\n1 1\n")
    (tmp_path / "coin3.team").write_text("vars: x y\n0 0\n0 1\n1 0\n")
    (tmp_path / "empty.team").write_text("vars: x y\n")
    (tmp_path / "constancy.atoms").write_text("ind(x ; ; x)\n")
    (tmp_path / "trans.atoms").write_text("dep(y ; z)\ndep(z ; x)\n")
    (tmp_path / "none.atoms").write_text("")
    return tmp_path


def _dep_chain(n):
    """dep(v00 ; v01), dep(v01 ; v02), ... over n variables."""
    return "".join(f"dep(v{i:02} ; v{i + 1:02})\n" for i in range(n - 1))


_STEP_LINE = r"\d+\. \[([\w-]+)\](?: from ([\d,]+))? (.*)"  # one rendered trace step


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestEval:
    def test_sat(self, workdir):
        code, out, _ = run(
            ["eval", str(workdir / "s2.structure"), str(workdir / "coin.team"), "ind(x ;; y)"]
        )
        assert code == 0 and out == "SAT (lax)\n"

    def test_unsat(self, workdir):
        code, out, _ = run(
            ["eval", str(workdir / "s2.structure"), str(workdir / "coin3.team"), "ind(x ;; y)"]
        )
        assert code == 1 and out == "UNSAT (lax)\n"

    def test_empty_team_sat(self, workdir):
        code, out, _ = run(
            ["eval", str(workdir / "s2.structure"), str(workdir / "empty.team"), "dep(x ; y)"]
        )
        assert code == 0 and out.startswith("SAT")

    def test_parse_error_exit_2(self, workdir):
        code, _, err = run(
            ["eval", str(workdir / "s2.structure"), str(workdir / "coin.team"), "ind(x ;"]
        )
        assert code == 2 and "line 1" in err

    def test_formula_from_file(self, workdir):
        path = workdir / "f.formula"
        path.write_text("ind(x ;; y)\n")
        code, out, _ = run(
            ["eval", str(workdir / "s2.structure"), str(workdir / "coin.team"), str(path)]
        )
        assert code == 0 and out == "SAT (lax)\n"

    def test_formula_file_cut_short_reports_the_line_after_it(self, workdir):
        path = workdir / "cut.formula"
        path.write_text("forall x.\n")
        code, out, err = run(
            ["eval", str(workdir / "s2.structure"), str(workdir / "coin.team"), str(path)]
        )
        assert code == 2 and out == ""
        assert err == "error: line 2, column 1: expected an atomic formula but found 'end of input'\n"

    def test_strict_flag(self, workdir):
        code, out, _ = run(
            [
                "eval",
                str(workdir / "s2.structure"),
                str(workdir / "coin.team"),
                "ind(x ;; y)",
                "--semantics",
                "strict",
            ]
        )
        assert code == 0 and out == "SAT (strict)\n"

    @pytest.mark.parametrize("mode", ["lax", "strict"])
    def test_branch_under_quantifiers_with_an_unused_team_column(self, tmp_path, mode):
        # The matrix never mentions w, so the rewrite's atom leaves it out;
        # the inner exists v is still closed, and lax exists y keeps to
        # singleton choices instead of searching value sets.
        (tmp_path / "s2.structure").write_text("domain: 0 1\n")
        (tmp_path / "w.team").write_text("vars: w\n0\n1\n")
        formula = "forall a. exists b. branch {forall x exists y ; forall u exists v}. u = a"
        files = [str(tmp_path / "s2.structure"), str(tmp_path / "w.team")]
        argv = ["eval", *files, formula, "--semantics", mode]
        assert run(argv) == (1, f"UNSAT ({mode})\n", "")

    def test_negative_budget_exit_2(self, workdir):
        files = [str(workdir / "s2.structure"), str(workdir / "coin.team"), "x = x"]
        code, out, err = run(["eval", *files, "--budget", "-1"])
        assert (code, out, err) == (2, "", "error: the search budget is negative\n")
        code, out, _ = run(["eval", *files, "--budget", "0"])
        assert code == 0 and out == "SAT (lax)\n"


class TestEntail:
    def test_constancy(self, workdir):
        code, out, _ = run(
            ["entail", str(workdir / "constancy.atoms"), "--goal", "ind(y ;; x)"]
        )
        assert code == 0
        assert "SYNTACTIC: DERIVED" in out and "constancy" in out
        assert "SEMANTIC: ENTAILED" in out

    def test_transitivity(self, workdir):
        code, out, _ = run(["entail", str(workdir / "trans.atoms"), "--goal", "dep(y ; x)"])
        assert code == 0
        assert "SYNTACTIC: DERIVED" in out and "SEMANTIC: ENTAILED" in out

    @pytest.mark.parametrize(
        "premises, goal, rule",
        [("dep(a ; b)\n", "ind(b ; a ; c)", "dep-to-ind"), ("", "ind(x ; x ; y)", "reflexivity")],
    )
    def test_goal_variables_join_the_closure(self, tmp_path, premises, goal, rule):
        # The goal names a variable no premise has, and one rule derives it.
        (tmp_path / "p.atoms").write_text(premises)
        argv = ["entail", str(tmp_path / "p.atoms"), "--goal", goal, "--mode", "syntactic"]
        code, out, _ = run(argv)
        lines = out.splitlines()
        assert code == 0 and lines[0] == "SYNTACTIC: DERIVED (forward chaining)"
        steps = []
        for line in lines[1:]:
            rule_name, cited, text = re.fullmatch(_STEP_LINE, line).groups()
            cited = tuple(int(c) - 1 for c in cited.split(",")) if cited else ()
            steps.append(TraceStep(rule_name, cited, parse_atom_statement(text)))
        trace = DerivationTrace(tuple(steps))
        assert trace.verify(parse_atoms_text(premises)) and steps[-1].rule == rule
        assert trace.conclusion() == parse_atom_statement(goal).canonical()

    def test_trace_rechecked_before_printing(self, tmp_path, monkeypatch):
        # A checker that rejects a rule stands for a step the rules do not
        # give: no engine prints a trace that uses it.  The first cases run
        # forward chaining, the others the functional-dependence closure
        # and the symmetry/constancy rules.
        atoms_file = str(tmp_path / "p.atoms")

        def entail(goal):
            return ["entail", atoms_file, "--goal", goal, "--mode", "syntactic"]

        cases = [
            ("dep(a ; b)\n", "dep-to-ind", entail("ind(b ; a ; c)")),
            ("dep(a ; b)\n", "dep-to-ind", ["closure", atoms_file, "--traces"]),
            ("dep(a ; b)\ndep(b ; c)\n", "dep-transitivity", entail("dep(a ; c)")),
            ("ind(x ; ; x)\n", "constancy", entail("ind(y ; ; x)")),
        ]
        for premises, rule, argv in cases:
            (tmp_path / "p.atoms").write_text(premises)
            assert run(argv)[0] == 0
            with monkeypatch.context() as patched:
                patched.setitem(RULE_CHECKERS, rule, lambda premises, conclusion: False)
                with pytest.raises(RuntimeError, match="derivation trace failed its re-check"):
                    run(argv)

    # The key implication behind the ind rewrite of branch: v independent of
    # x given u, with (x, u) fixing v, makes u fix v; outright independence
    # of x does not.
    def test_key_implication_strong_condition_derived(self, tmp_path):
        (tmp_path / "p.atoms").write_text("dep(x u ; v)\nind(v ; u ; x)\n")
        assert run(["entail", str(tmp_path / "p.atoms"), "--goal", "dep(u ; v)"]) == (
            0,
            "SYNTACTIC: DERIVED (forward chaining)\n"
            "1. [premise] dep(u x ; v)\n"
            "2. [premise] ind(v ; u ; x)\n"
            "3. [dep-to-ind] from 1 ind(v ; u x ; v)\n"
            "4. [symmetry] from 2 ind(x ; u ; v)\n"
            "5. [first-transitivity] from 4,3 ind(v ; u ; v)\n"
            "6. [ind-to-dep] from 5 dep(u ; v)\n"
            "SEMANTIC: ENTAILED (up to 4 rows)\n",
            "",
        )

    def test_key_implication_weak_condition_not_entailed(self, tmp_path):
        (tmp_path / "p.atoms").write_text("dep(x u ; v)\nind(v ;; x)\n")
        assert run(["entail", str(tmp_path / "p.atoms"), "--goal", "dep(u ; v)"]) == (
            0,
            "SYNTACTIC: NOT DERIVED (forward chaining)\n"
            "SEMANTIC: NOT ENTAILED\n"
            "countermodel team (domain size 2):\n"
            "vars: u v x\n"
            "0 0 0\n"
            "0 1 1\n"
            "1 0 1\n"
            "1 1 0\n",
            "",
        )

    def test_sampled_countermodel_pinned(self, tmp_path):
        # Every countermodel has four rows, the default bound outside the
        # exact fragments: the exact output guards the canonical-team order
        # and the countermodel printing end to end.
        (tmp_path / "p.atoms").write_text("ind(x ; ; y)\ndep(x y ; z)\n")
        argv = ["entail", str(tmp_path / "p.atoms"), "--goal", "ind(x ; z ; y)", "--mode", "semantic"]
        assert run(argv) == (
            0,
            "SEMANTIC: NOT ENTAILED\n"
            "countermodel team (domain size 2):\n"
            "vars: x y z\n"
            "0 0 0\n"
            "0 1 0\n"
            "1 0 0\n"
            "1 1 1\n",
            "",
        )

    @pytest.mark.parametrize(
        "premises, goal, bound, verdict",
        [
            ("dep(x ; y)\n", "dep(x z ; y)", [], "exact"),
            ("dep(x ; y)\n", "dep(x z ; y)", ["--max-rows", "5"], "exact"),
            ("ind(x ; z ; y)\n", "ind(y ; z ; x)", [], "up to 4 rows"),
            ("ind(x ; z ; y)\n", "ind(y ; z ; x)", ["--max-rows", "2"], "up to 2 rows"),
            ("ind(a ; b ; c)\ndep(d ; e)\n", "ind(c ; b ; a)", [], "up to 3 rows"),
        ],
    )
    def test_entailed_verdict_names_its_bound(self, tmp_path, premises, goal, bound, verdict):
        (tmp_path / "p.atoms").write_text(premises)
        argv = ["entail", str(tmp_path / "p.atoms"), "--goal", goal, "--mode", "semantic", *bound]
        assert run(argv) == (0, f"SEMANTIC: ENTAILED ({verdict})\n", "")

    def test_underivable_prints_countermodel(self, workdir):
        code, out, _ = run(["entail", str(workdir / "none.atoms"), "--goal", "ind(x ;; y)"])
        assert code == 0
        assert "NOT DERIVED" in out and "NOT ENTAILED" in out
        assert "vars: x y" in out

    def test_semantic_only(self, workdir):
        code, out, _ = run(
            ["entail", str(workdir / "trans.atoms"), "--goal", "dep(y ; x)", "--mode", "semantic"]
        )
        assert code == 0 and "SYNTACTIC" not in out

    @pytest.mark.parametrize("bound", [["--max-rows", "0"], ["--max-rows", "1"]])
    def test_vacuous_search_exit_2(self, workdir, bound):
        # the default mode also runs the syntactic engine, which prints
        # nothing once the search is refused
        argv = ["entail", str(workdir / "none.atoms"), "--goal", "dep(x ; y)", *bound]
        code, out, err = run(argv)
        assert code == 2 and out == ""
        assert err.startswith("error: vacuous search")

    @pytest.mark.parametrize(
        "premises, goal, bound",
        [
            # 15^5 canonical teams of 4 rows over five variables, 3 atoms
            # each; without a bound the search would take 3 rows
            ("ind(a ; b ; c)\ndep(d ; e)\n", "ind(c ; b ; a)", ["--mode", "semantic", "--max-rows", "4"]),
            # about 8.4 million canonical teams of at most 6 rows, 2 atoms each
            ("ind(x ; z ; y)\n", "ind(y ; z ; x)", ["--mode", "semantic", "--max-rows", "6"]),
            # the default mode: the syntactic report would come first
            ("ind(a ; b ; c)\ndep(d ; e)\n", "ind(c ; b ; a)", ["--max-rows", "4"]),
            # 2^20 two-row canonical teams over a 20-variable dep chain
            pytest.param(_dep_chain(20), "dep(v19 ; v00)", [], id="dep-chain-20"),
            # 2^24 over 24 variables: `counterexample` answers this goal
            pytest.param(_dep_chain(24), "dep(v23 ; v00)", ["--mode", "semantic"], id="dep-chain-24"),
        ],
    )
    def test_oversized_search_exit_2(self, tmp_path, premises, goal, bound):
        (tmp_path / "p.atoms").write_text(premises)
        argv = ["entail", str(tmp_path / "p.atoms"), "--goal", goal, *bound]
        start = time.perf_counter()
        code, out, err = run(argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: search space too large")


class TestValidity:
    def test_valid_sentence(self):
        code, out, _ = run(
            ["validity", "forall x. forall y. exists z. (ind(z ;; x) and z = y)", "--max-size", "4"]
        )
        assert code == 0 and out.startswith("VALID-UP-TO-4")

    def test_invalid_sentence(self):
        code, out, _ = run(
            ["validity", "forall x. exists y. exists z. (ind(z ;; x) and z = x)", "--max-size", "4"]
        )
        assert code == 0
        assert out.startswith("COUNTERMODEL size 2")
        assert "domain: 0 1" in out

    def test_lax_matches_strict_below_dependence(self):
        # No ind below the disjunction: lax needs no overlapping covers or
        # value-set choices, so it decides as fast as strict.
        sentence = "forall x. exists y. forall z. (R(x, z) or dep(x ; y))"
        for mode in ("lax", "strict"):
            code, out, _ = run(["validity", sentence, "--max-size", "3", "--semantics", mode])
            assert (code, out) == (0, f"VALID-UP-TO-3 ({mode})\n")

    @pytest.mark.parametrize(
        "sentence, bound",
        [("forall x. R(x, x)", "120"), (f"forall x. R({', '.join(['x'] * 24)})", "2")],
        ids=["size-120", "arity-24"],
    )
    def test_oversized_search_refused_at_once(self, sentence, bound):
        # Over 2**14400 structures in both cases: the count stops at the cap
        # and the message gives the cap, not the count.
        code, out, err = run(["validity", sentence, "--max-size", bound])
        assert code == 2 and out == ""
        assert err == "error: validity search exceeds the cap of 1048576 structures\n"

    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_vacuous_bound_exit_2(self, bound):
        code, out, err = run(["validity", "exists x. not x = x", "--max-size", bound])
        assert code == 2 and out == ""
        assert err.startswith("error: vacuous search")


class TestOtherCommands:
    def test_translate(self):
        code, out, _ = run(["translate", "ind(x1 ; x2 ; x3)", "--scope", "x1", "x2", "x3"])
        assert code == 0 and out.startswith("exists2 .")
        assert "u2 = y2" in out

    def test_translate_renames_a_captured_team_symbol(self):
        code, out, _ = run(["translate", "S(x, y)", "--scope", "x", "y"])
        assert code == 0
        assert out == "exists2 . forall v1. forall v2. not S0(v1, v2) or S(v1, v2)\n"

    def test_desugar(self):
        code, out, _ = run(["desugar", "forall x. exists y. exists z/{x}. z = x"])
        assert code == 0
        assert out.strip() == "forall x. exists y. exists z. ind(x ; y ; z) and z = x"

    def test_desugar_rejects_rebound_prefix_variable(self):
        code, out, err = run(["desugar", "branch {forall x exists y ; forall x exists v}. x = x"])
        assert code == 2 and out == ""
        assert err == "error: branching prefix binds a variable twice\n"

    def test_eso_check(self, workdir):
        code, out, _ = run(
            ["eso-check", str(workdir / "s2.structure"), str(workdir / "coin.team"), "ind(x ;; y)"]
        )
        assert code == 0 and out == "team=SAT eso=SAT agree=yes\n"

    def test_eso_check_structure_relation_named_like_the_team_symbol(self, tmp_path):
        (tmp_path / "s.structure").write_text("domain: 0 1\nrelation S/2: (0,1)\n")
        (tmp_path / "t.team").write_text("vars: x y\n0 1\n")
        code, out, err = run(
            ["eso-check", str(tmp_path / "s.structure"), str(tmp_path / "t.team"), "S(x, y)"]
        )
        assert (code, out, err) == (0, "team=SAT eso=SAT agree=yes\n", "")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eso-check", "S2", "COIN", "ind(x ;; y) or x = y", "--max-bits", "-1"],
             "the relation cell bound is negative"),
            (["eso-check", "S2", "COIN", "x = y", "--max-bits", "-1"],  # no relation variables
             "the relation cell bound is negative"),
            (["branch", "branch {forall x exists y ; forall u exists v}. v = x", "S2",
              "--max-domain", "-1"], "the domain bound is negative"),
            (["validity", "forall x. x = x", "--max-structures", "-1"],
             "the structure bound is negative"),
        ],
        ids=["eso-check", "eso-check-first-order", "branch", "validity"],
    )
    def test_negative_cap_exit_2(self, workdir, argv, message):
        files = {"S2": str(workdir / "s2.structure"), "COIN": str(workdir / "coin.team")}
        code, out, err = run([files.get(a, a) for a in argv])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_branch(self, workdir):
        code, out, _ = run(
            [
                "branch",
                "branch {forall x exists y ; forall u exists v}. v = x",
                str(workdir / "s2.structure"),
            ]
        )
        assert code == 0 and out == "skolem=FALSE compositional=FALSE agree=yes\n"

    def test_counterexample(self, workdir):
        code, out, _ = run(
            ["counterexample", str(workdir / "none.atoms"), "--goal", "ind(y ;; x)"]
        )
        assert code == 0 and "countermodel team" in out

    @pytest.mark.parametrize(
        "premises, goal, scope, high_row",
        [
            # six self-independent variables and three independent pairs
            (
                "".join(f"ind(p{i} ; ; p{i})\n" for i in range(6))
                + "ind(q1 ; ; q2)\nind(q3 ; ; q4)\nind(q5 ; ; q6)\n",
                "ind(x ;; y)",
                "p0 p1 p2 p3 p4 p5 q1 q2 q3 q4 q5 q6 x y",
                "0 0 0 0 0 0 0 0 0 0 0 0 1 1",
            ),
            # the closure of v23 is v23 itself; the search refuses this goal
            (_dep_chain(24), "dep(v23 ; v00)", " ".join(f"v{i:02}" for i in range(24)), "1 " * 23 + "0"),
        ],
        ids=["ind-14", "dep-24"],
    )
    def test_wide_counterexample_is_two_rows(self, tmp_path, premises, goal, scope, high_row):
        (tmp_path / "p.atoms").write_text(premises)
        start = time.perf_counter()
        code, out, err = run(["counterexample", str(tmp_path / "p.atoms"), "--goal", goal])
        assert time.perf_counter() - start < 1.0
        low_row = " ".join("0" for _ in scope.split())
        assert (code, out, err) == (
            0,
            f"countermodel team (domain size 2):\nvars: {scope}\n{low_row}\n{high_row}\n",
            "",
        )

    @pytest.mark.parametrize(
        "premises, goal, error",
        [
            ("ind(x ; ; y)\n", "dep(x ; y)", "expected dep atoms only, found ind(x ; ; y)"),
            (
                "ind(x ; z ; y)\n",
                "ind(x ;; y)",
                "expected unconditional single-variable ind atoms only, found ind(x ; z ; y)",
            ),
        ],
        ids=["dep", "ind-unconditional"],
    )
    def test_counterexample_outside_its_fragment_exit_2(self, tmp_path, premises, goal, error):
        (tmp_path / "p.atoms").write_text(premises)
        code, out, err = run(["counterexample", str(tmp_path / "p.atoms"), "--goal", goal])
        assert (code, out, err) == (2, "", f"error: {error}\n")

    def test_counterexample_derivable(self, workdir):
        code, out, _ = run(
            ["counterexample", str(workdir / "constancy.atoms"), "--goal", "ind(y ;; x)"]
        )
        assert code == 0 and "DERIVABLE" in out

    def test_closure(self, workdir):
        code, out, _ = run(["closure", str(workdir / "constancy.atoms"), "--universe", "x", "y"])
        assert code == 0
        assert "truncated: no" in out
        assert "dep(; x)" in out  # constancy of x in dep form

    def test_closure_step_bound(self, workdir):
        atoms = str(workdir / "constancy.atoms")
        code, out, err = run(["closure", atoms, "--max-steps", "-1"])
        assert (code, out, err) == (2, "", "error: the step bound is negative\n")
        code, out, _ = run(["closure", atoms, "--max-steps", "0"])
        assert code == 0 and out == "closure size: 0 (truncated: yes)\n"

    def test_closure_traces_pinned(self, tmp_path):
        # The whole report, steps in the order the closure found them.
        (tmp_path / "mixed.atoms").write_text("ind(y ; z ; y)\ndep(z ; x)\n")
        code, out, err = run(["closure", str(tmp_path / "mixed.atoms"), "--traces"])
        assert code == 0 and err == ""
        assert out.startswith("closure size: 416 (truncated: no)\n")
        digest = "94409afbff53f9fb04579297d921fc81a3df02cede7faa0a6c5d512dc09ab3d5"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_long_inline_formula(self):
        formula = " and ".join(f"x{i} = x{i}" for i in range(30))
        assert len(formula.encode()) > 255
        code, out, _ = run(["desugar", formula])
        assert code == 0 and out == formula + "\n"

    @pytest.mark.parametrize("mode", ["lax", "strict"])
    @pytest.mark.parametrize("matrix", ["v = x", "y = x and v = u", "v = x or u = y"])
    def test_branch_unused_assignment_changes_nothing(self, workdir, matrix, mode):
        formula = "branch {forall x exists y ; forall u exists v}. " + matrix
        argv = ["branch", formula, str(workdir / "s2.structure"), "--semantics", mode]
        plain = run(argv)
        assert plain[0] == 0 and plain[1].startswith("skolem=")
        assert run([*argv, "--assign", "w=0"]) == plain

    @pytest.mark.parametrize("assign", [["w=9"], ["w=0", "w=1"]])
    def test_branch_bad_assignment_exit_2(self, workdir, assign):
        formula = "branch {forall x exists y ; forall u exists v}. y = x and v = w"
        code, out, err = run(
            ["branch", formula, str(workdir / "s2.structure"), "--assign", *assign]
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_deep_parentheses_exit_2(self, workdir):
        formula = "(" * 2000 + "x = x" + ")" * 2000
        code, out, err = run(
            ["eval", str(workdir / "s2.structure"), str(workdir / "coin.team"), formula]
        )
        assert code == 2 and out == ""
        assert err == "error: formula nested too deeply\n"

    def test_deep_quantifier_prefix_exit_2(self):
        code, out, err = run(["desugar", "forall x. " * 1200 + "x = x"])
        assert code == 2 and out == ""
        assert err == "error: formula nested too deeply\n"

    @pytest.mark.parametrize("command", ["eval", "eso-check"])
    def test_duplicate_team_variable_exit_2(self, workdir, command):
        (workdir / "dup.team").write_text("vars: x x\n0 0\n")
        code, out, err = run(
            [command, str(workdir / "s2.structure"), str(workdir / "dup.team"), "x = x"]
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "duplicate variable" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "{bad}", "{w}/coin.team", "x = x"],
            ["eval", "{w}/s2.structure", "{bad}", "x = x"],
            ["eval", "{w}/s2.structure", "{w}/coin.team", "{bad}"],
            ["entail", "{bad}", "--goal", "dep(x ; y)"],
            ["closure", "{bad}"],
            ["counterexample", "{bad}", "--goal", "dep(x ; y)"],
            ["eso-check", "{w}/s2.structure", "{bad}", "x = x"],
        ],
        ids=[
            "eval-structure", "eval-team", "eval-formula", "entail", "closure", "counterexample", "eso-check"
        ],
    )
    def test_non_utf8_input_file_exit_2(self, workdir, argv):
        bad = workdir / "bad.bin"
        bad.write_bytes(b"\xff")
        code, out, err = run([arg.format(w=workdir, bad=bad) for arg in argv])
        assert (code, out, err) == (2, "", f"error: {bad}: not UTF-8 text\n")

    def test_translate_duplicate_scope_exit_2(self):
        code, out, err = run(["translate", "x = x", "--scope", "x", "x"])
        assert code == 2 and out == ""
        assert err == "error: scope variables must be distinct\n"

    def test_missing_file_exit_2(self):
        code, _, err = run(["eval", "no-such-file", "also-missing", "x = x"])
        assert code == 2 and "error:" in err


class TestDeterminism:
    def test_identical_runs(self, workdir):
        argv = ["entail", str(workdir / "none.atoms"), "--goal", "ind(x ;; y)"]
        assert run(argv) == run(argv)

    def test_validity_deterministic(self):
        argv = ["validity", "forall x. exists y. exists z. (ind(z ;; x) and z = x)"]
        assert run(argv) == run(argv)


_FUZZ_ATOMS = (
    "x = y", "x = C", "R(x, y)", "R(x)", "not R(y, z)", "dep(x ; y)", "ind(x ;; y)",
    "ind(z ; x ; y)", "not dep(y ; x)",
)
_FUZZ_PREFIXES = (
    "exists z.", "forall x.", "exists z/{x}.", "exists y/{w}.",
    "branch {forall x exists y ; forall u exists v}.",
)
_FUZZ_STRUCTURE_LINES = (
    "domain: 0 0", "domain:", "relation R/1: (0)", "relation R/x:", "relation R/2: (0,2)",
    "relation R/1: (0,1)", "constant C = 5", "constant C =", "vars: x", "",
)


def _fuzz_case(rng, path):
    """A random CLI invocation: inputs that are mostly well formed, some
    with a token dropped or repeated, and small numeric flag values."""

    def pick(pool, low, high, sep=" "):
        return sep.join(rng.choice(pool) for _ in range(rng.randint(low, high)))

    def garble(text):
        tokens = text.split(" ")
        if rng.random() < 0.3:
            i = rng.randrange(len(tokens))
            tokens[i : i + 1] = rng.choice(([], [tokens[i]] * 2, [tokens[i][:-1]]))
        return " ".join(tokens)

    def formula(depth=2):
        roll = rng.random()
        if depth == 0 or roll < 0.3:
            return rng.choice(_FUZZ_ATOMS)
        if roll < 0.6:
            return f"{rng.choice(_FUZZ_PREFIXES)} {formula(depth - 1)}"
        return f"({formula(depth - 1)} {rng.choice(('and', 'or'))} {formula(depth - 1)})"

    def atom():
        parts = [pick("xyz", 0, 2) for _ in range(rng.choice((2, 3)))]
        return garble(f"{rng.choice(('dep', 'ind'))}({' ; '.join(parts)})")

    def small():
        return str(rng.choice((-1, 0, 1, 2)))

    names = rng.choice(("x y z", pick("xyz", 0, 3))).split()
    rows = [pick("01", len(names), len(names)) or "()" for _ in range(rng.randint(0, 3))]
    (path / "f.team").write_text(garble("\n".join(["vars: " + " ".join(names), *rows])))
    lines = ["domain: 0 1", "relation R/2: (0,1) (1,1)", "constant C = 0"]
    if rng.random() < 0.4:
        lines[rng.randrange(3)] = rng.choice(_FUZZ_STRUCTURE_LINES)
    (path / "f.structure").write_text("\n".join(lines) + "\n")
    (path / "f.atoms").write_text("\n".join(atom() for _ in range(rng.randint(0, 3))))
    text = garble(formula())
    structure, team, atoms = (str(path / n) for n in ("f.structure", "f.team", "f.atoms"))
    semantics = rng.choice(("lax", "strict"))
    return rng.choice(
        [
            ["eval", structure, team, text, "--semantics", semantics, "--budget", small()],
            ["eso-check", structure, team, text, "--max-bits", rng.choice(("-1", "0", "8"))],
            ["entail", atoms, "--goal", atom(), "--mode", rng.choice(("syntactic", "semantic")),
             "--max-rows", small()],
            ["closure", atoms, "--max-steps", small(), "--universe", *pick("xyz", 0, 3).split()],
            ["counterexample", atoms, "--goal", atom()],
            ["validity", "forall x. forall y. " + text, "--semantics", semantics,
             "--max-size", small(), "--max-structures", rng.choice(("-1", "0", "1", "64"))],
            ["translate", text, "--scope", *pick("xyz", 1, 3).split()],
            ["branch", text, structure, "--max-domain", small(),
             "--assign", *pick(("x=0", "u=1", "x=5", "x", "=0"), 0, 2).split()],
            ["desugar", text],
        ]
    )


def test_cli_fuzz_keeps_the_exit_code_contract(tmp_path):
    """Exit 0, 1 (eval only) or 2, and never a traceback, on random
    malformed team, structure, atom and formula text and small numeric
    flag values."""
    rng = random.Random(0)
    broken = []
    for case in range(600):
        argv = _fuzz_case(rng, tmp_path)
        try:
            code, _, err = run(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code, err = exc.code, ""
        except Exception as exc:
            code, err = repr(exc), ""
        if code not in ((0, 1, 2) if argv[0] == "eval" else (0, 2)) or "Traceback" in err:
            broken.append((case, argv, code))
    assert not broken, broken[:5]
