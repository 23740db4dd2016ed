"""End-to-end CLI checks: outputs, exit codes, determinism."""

import io
import contextlib

import pytest

from teamlogic.cli import main


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

    @pytest.mark.parametrize(
        "bound", [["--domain-sizes", "0"], ["--max-rows", "1", "--samples", "0"]]
    )
    def test_vacuous_search_exit_2(self, workdir, bound):
        argv = ["entail", str(workdir / "none.atoms"), "--goal", "dep(x ; y)", *bound]
        code, out, err = run(argv)
        assert code == 2 and "SEMANTIC" not in out
        assert err.startswith("error: vacuous search")


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

    def test_long_inline_formula(self):
        formula = " and ".join(f"x{i} = x{i}" for i in range(30))
        assert len(formula.encode()) > 255
        code, out, _ = run(["desugar", formula])
        assert code == 0 and out == formula + "\n"

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

    def test_missing_file_exit_2(self):
        code, _, err = run(["eval", "no-such-file", "also-missing", "x = x"])
        assert code == 2 and "error:" in err


class TestDeterminism:
    def test_identical_runs(self, workdir):
        argv = ["entail", str(workdir / "none.atoms"), "--goal", "ind(x ;; y)", "--seed", "1"]
        assert run(argv) == run(argv)

    def test_validity_deterministic(self):
        argv = ["validity", "forall x. exists y. exists z. (ind(z ;; x) and z = x)"]
        assert run(argv) == run(argv)
