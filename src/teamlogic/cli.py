"""Command-line interface.

Subcommands: eval, entail, closure, counterexample, validity, translate,
eso-check, branch, desugar.  Formula arguments are taken verbatim unless
they name an existing file, in which case the file's contents are parsed.
Exit codes: 0 for a completed report (for ``eval``: satisfied), 1 for
``eval`` on an unsatisfied instance, 2 for any error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import atoms as atoms_mod
from . import branching as branching_mod
from . import eso as eso_mod
from .core import (
    Structure,
    Team,
    format_structure,
    format_team,
    parse_structure,
    parse_team,
)
from .errors import LogicError
from .semantics import DEFAULT_MAX_STRUCTURES, DEFAULT_SEARCH_BUDGET, evaluate, validity_search
from .syntax import (
    DepAtom,
    Henkin,
    desugar_henkin,
    desugar_slash,
    format_formula,
    parse_atom_statement,
    parse_atoms_text,
    parse_formula,
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise LogicError(f"{path}: not UTF-8 text") from None


def _read_formula_arg(arg: str):
    try:
        is_file = Path(arg).is_file()
    except OSError:  # e.g. an inline formula too long to be a file name
        is_file = False
    return parse_formula(_read(arg) if is_file else arg)


def _read_desugared(arg: str):
    return desugar_henkin(desugar_slash(_read_formula_arg(arg)))


def _read_structure(path: str) -> Structure:
    return parse_structure(_read(path))


def _print_countermodel(structure: Structure, team, out) -> None:
    print(f"countermodel team (domain size {structure.size}):", file=out)
    print(format_team(team, structure), end="", file=out)


def cmd_eval(args, out) -> int:
    structure = _read_structure(args.structure)
    team = parse_team(_read(args.team), structure)
    formula = _read_desugared(args.formula)
    ok = evaluate(structure, team, formula, mode=args.semantics, budget=args.budget)
    print(f"{'SAT' if ok else 'UNSAT'} ({args.semantics})", file=out)
    return 0 if ok else 1


def _print_trace(trace, premises, out) -> None:
    """Print a derivation trace once it passes its re-check; the empty
    trace of a closure cut off at zero steps has nothing to check."""
    if trace.steps and not trace.verify(premises):
        raise RuntimeError("derivation trace failed its re-check")
    print(trace.render(), file=out)


def _syntactic_report(premises, goal, out) -> None:
    fragment = atoms_mod.fragment_of(premises, goal)
    if fragment == "dep":
        trace = atoms_mod.armstrong_derives(premises, goal)
        engine = "functional-dependence closure"
    elif fragment == "ind-unconditional":
        trace = atoms_mod.independence_derives(premises, goal)
        engine = "symmetry/constancy rules"
    else:
        closure = atoms_mod.rule_closure(premises, goal=goal)
        # derivation_of indexes every step, so it runs only on a derived goal.
        trace = closure.derivation_of(goal) if goal.canonical() in closure.atoms else None
        engine = f"forward chaining{'; truncated' if closure.truncated else ''}"
    print(f"SYNTACTIC: {'NOT DERIVED' if trace is None else 'DERIVED'} ({engine})", file=out)
    if trace is not None:
        _print_trace(trace, premises, out)


def cmd_entail(args, out) -> int:
    premises = parse_atoms_text(_read(args.atoms))
    goal = parse_atom_statement(args.goal)
    # The search runs first: when it refuses, nothing has been printed.
    verdict = None
    if args.mode in ("semantic", "both"):
        verdict = atoms_mod.semantic_entails(premises, goal, args.max_rows)
    if args.mode in ("syntactic", "both"):
        _syntactic_report(premises, goal, out)
    if verdict is not None:
        if verdict.entailed:
            kind = "exact" if verdict.exact else f"up to {verdict.max_rows} rows"
            print(f"SEMANTIC: ENTAILED ({kind})", file=out)
        else:
            print("SEMANTIC: NOT ENTAILED", file=out)
            _print_countermodel(verdict.witness_structure, verdict.witness, out)
    return 0


def cmd_closure(args, out) -> int:
    premises = parse_atoms_text(_read(args.atoms))
    universe = tuple(args.universe) if args.universe else None
    result = atoms_mod.rule_closure(premises, max_steps=args.max_steps, universe=universe)
    print(f"closure size: {len(result.atoms)} (truncated: {'yes' if result.truncated else 'no'})", file=out)
    for atom in sorted(result.atoms, key=str):
        print(str(atom), file=out)
    if args.traces:
        print("--- derivation steps ---", file=out)
        _print_trace(result.trace, premises, out)
    return 0


def cmd_counterexample(args, out) -> int:
    premises = parse_atoms_text(_read(args.atoms))
    goal = parse_atom_statement(args.goal)
    if isinstance(goal, DepAtom):
        team = atoms_mod.counterexample_armstrong(premises, goal)
    else:
        team = atoms_mod.counterexample_independence(premises, goal)
    if team is None:
        print("DERIVABLE (no counterexample)", file=out)
    else:
        _print_countermodel(Structure.plain(2), team, out)
    return 0


def cmd_validity(args, out) -> int:
    sentence = _read_desugared(args.formula)
    result = validity_search(
        sentence,
        args.max_size,
        mode=args.semantics,
        max_structures=args.max_structures,
    )
    if result.valid_up_to_bound:
        print(f"VALID-UP-TO-{args.max_size} ({args.semantics})", file=out)
    else:
        size = result.countermodel.size
        print(f"COUNTERMODEL size {size} ({args.semantics})", file=out)
        print(format_structure(result.countermodel), end="", file=out)
    return 0


def cmd_translate(args, out) -> int:
    formula = _read_desugared(args.formula)
    sentence = eso_mod.translate(formula, tuple(args.scope))
    print(eso_mod.format_eso(sentence), file=out)
    return 0


def cmd_eso_check(args, out) -> int:
    structure = _read_structure(args.structure)
    team = parse_team(_read(args.team), structure)
    formula = _read_desugared(args.formula)
    report = eso_mod.check_translation(structure, team, formula, max_bits=args.max_bits)
    print(
        f"team={'SAT' if report.team_value else 'UNSAT'} "
        f"eso={'SAT' if report.eso_value else 'UNSAT'} "
        f"agree={'yes' if report.agree else 'no'}",
        file=out,
    )
    return 0


def cmd_branch(args, out) -> int:
    formula = _read_formula_arg(args.formula)
    if not isinstance(formula, Henkin):
        raise LogicError("the branch command expects a branch {...} formula")
    structure = _read_structure(args.structure)
    names, values = [], []
    try:
        for item in args.assign or []:
            name, _, value = item.partition("=")
            if not name or not value:
                raise LogicError(f"malformed assignment {item!r}; expected var=element")
            names.append(name)
            values.append(structure.id_of(value))
        team = Team(names, [values])
    except ValueError as exc:  # unknown element or a variable assigned twice
        raise LogicError(f"bad --assign: {exc}") from None
    report = branching_mod.check_branching_equivalence(
        structure, team, formula, mode=args.semantics, max_domain=args.max_domain
    )
    print(
        f"skolem={'TRUE' if report.skolem else 'FALSE'} "
        f"compositional={'TRUE' if report.compositional else 'FALSE'} "
        f"agree={'yes' if report.agree else 'no'}",
        file=out,
    )
    return 0


def cmd_desugar(args, out) -> int:
    formula = _read_desugared(args.formula)
    print(format_formula(formula), file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teamlogic",
        description="Model checking and inference for dependence and independence "
        "logic under team semantics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a formula on a structure and team")
    p.add_argument("structure")
    p.add_argument("team")
    p.add_argument("formula", help="formula text, or a path to a formula file")
    p.add_argument("--semantics", choices=("strict", "lax"), default="lax")
    p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("entail", help="decide atom entailment")
    p.add_argument("atoms", help="file with one dep(...)/ind(...) atom per line")
    p.add_argument("--goal", required=True)
    p.add_argument("--mode", choices=("syntactic", "semantic", "both"), default="both")
    p.add_argument("--max-rows", type=int)
    p.set_defaults(handler=cmd_entail)

    p = sub.add_parser("closure", help="forward-chaining closure of an atom set")
    p.add_argument("atoms")
    p.add_argument("--max-steps", type=int, default=atoms_mod.DEFAULT_MAX_STEPS)
    p.add_argument("--universe", nargs="*", default=None)
    p.add_argument("--traces", action="store_true")
    p.set_defaults(handler=cmd_closure)

    p = sub.add_parser("counterexample", help="construct a countermodel team for a goal")
    p.add_argument("atoms")
    p.add_argument("--goal", required=True)
    p.set_defaults(handler=cmd_counterexample)

    p = sub.add_parser("validity", help="bounded validity check for a sentence")
    p.add_argument("formula")
    p.add_argument("--max-size", type=int, default=4)
    p.add_argument("--semantics", choices=("strict", "lax"), default="lax")
    p.add_argument("--max-structures", type=int, default=DEFAULT_MAX_STRUCTURES)
    p.set_defaults(handler=cmd_validity)

    p = sub.add_parser("translate", help="second-order translation of a formula")
    p.add_argument("formula")
    p.add_argument("--scope", nargs="+", required=True)
    p.set_defaults(handler=cmd_translate)

    p = sub.add_parser("eso-check", help="compare team evaluation with the translation")
    p.add_argument("structure")
    p.add_argument("team")
    p.add_argument("formula")
    p.add_argument("--max-bits", type=int, default=eso_mod.DEFAULT_RELATION_BITS_CAP)
    p.set_defaults(handler=cmd_eso_check)

    p = sub.add_parser("branch", help="check a branching prefix both ways")
    p.add_argument("formula")
    p.add_argument("structure")
    p.add_argument("--assign", nargs="*", default=None, metavar="VAR=ELEM")
    p.add_argument("--semantics", choices=("strict", "lax"), default="lax")
    p.add_argument("--max-domain", type=int, default=branching_mod.DEFAULT_SKOLEM_DOMAIN_CAP)
    p.set_defaults(handler=cmd_branch)

    p = sub.add_parser("desugar", help="rewrite slashed and branching quantifiers away")
    p.add_argument("formula")
    p.set_defaults(handler=cmd_desugar)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, sys.stdout)
    except (LogicError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
