"""Regenerate the checked-in query pools of the benchmark.

    python3 bench/make_pool.py [WORKLOAD ...]

Each pool is drawn from ``teamlogic.generators`` with a fixed generation
seed, answered through the same CLI handlers the benchmark times, and
confirmed by an independent route wherever one applies:

* ``eval`` (lax) against the second-order route ``eval_eso`` when the
  translation has at most ``ESO_CONFIRM_CELLS`` relation cells;
* ``entail`` in the two exact fragments: syntactic and semantic verdicts
  must agree; in the mixed fragment DERIVED must imply ENTAILED;
* ``eso-check`` and ``branch``: both routes must agree; a query where
  they do not is kept and marked ``known_defect``;
* every printed countermodel is re-checked (see ``workloads.check``).

Any other record that fails its confirmation stops the run.  Queries
that take longer than ``MAX_QUERY_US`` are left out and counted; which
ones do depends on the machine's speed, so a rebuild can differ from the
checked-in pools, which are the reference.  Pool
sizes are set so that one pass over a pool takes about five seconds on a
2-CPU machine at the commit that introduced the benchmark.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from teamlogic import cli  # noqa: E402
from teamlogic.eso import eval_eso, translate  # noqa: E402
from teamlogic.generators import (  # noqa: E402
    eso_bits,
    estimate_eval_cost,
    random_checkable_instance,
    random_dep_statements,
    random_fo_formula,
    random_formula,
    random_ind_statements,
    random_structure,
    random_team,
)
from teamlogic.syntax import (  # noqa: E402
    DepStatement,
    Exists,
    Forall,
    Henkin,
    IndStatement,
    format_atom_statement,
    format_formula,
    parse_formula,
)

GENERATION_SEED = 20120824  # the source paper's arXiv month, as a fixed constant
ESO_CONFIRM_CELLS = 16
MAX_FORMULA_CHARS = 200  # inline formulas past ~255 bytes hit ENAMETOOLONG in the CLI
EVAL_COST_CAP = 20_000  # generators.estimate_eval_cost of one eval instance
VALIDITY_COST_CAP = 10**6  # estimate_eval_cost times the structures enumerated
MAX_QUERY_US = 1_000_000  # longer queries are left out of the pool and counted

POOL_SIZES = {"team-eval": 1500, "validity": 400, "entailment": 70, "cross-check": 125}

excluded: dict = {}


def answer(record: dict, directory: Path) -> tuple[dict, int]:
    """Run one record through its CLI handler; the verdict and time in µs."""
    argv, files = workloads.render(record, directory)
    for name, text in files.items():
        (directory / name).write_text(text)
    args = cli.build_parser().parse_args(argv)
    out = io.StringIO()
    start = time.perf_counter()
    args.handler(args, out)
    elapsed = time.perf_counter() - start
    return workloads.verdict(record["cmd"], out.getvalue()), round(elapsed * 1e6)


def too_slow(record: dict, us: int) -> bool:
    if us <= MAX_QUERY_US:
        return False
    key = record["cmd"] + ("/" + record["mode"] if "mode" in record else "")
    count, slowest = excluded.get(key, (0, 0))
    excluded[key] = (count + 1, max(slowest, us))
    return True


def confirm(record: dict, got: dict) -> dict:
    record["ref"] = {k: v for k, v in got.items() if k != "witness"}
    problem = workloads.check(record, got)
    if problem is not None:
        raise SystemExit(f"reference self-check failed: {problem}\n{json.dumps(record)}")
    return record


def _rel_cells(structure) -> list:
    return sorted(list(t) for t in structure.relations.get("R", ()))


# ---------------------------------------------------------------------------
# team-eval
# ---------------------------------------------------------------------------


def team_eval(rng: random.Random, count: int, directory: Path):
    made = 0
    confirmed = 0
    while made < count:
        size = rng.choice((2, 3))
        structure = random_structure(rng, size, {"R": 2})
        team = random_team(rng, size, ("x", "y"), max_rows=8, min_rows=2)
        formula = random_formula(rng, ["x", "y"], depth=rng.randint(2, 5), relations={"R": 2})
        text = format_formula(formula)
        if len(text) > MAX_FORMULA_CHARS or parse_formula(text) != formula:
            continue
        if estimate_eval_cost(formula, len(team), size) > EVAL_COST_CAP:
            continue
        eso_value = None
        if eso_bits(formula, team.scope, size) <= ESO_CONFIRM_CELLS:
            eso_value = eval_eso(structure, team, translate(formula, team.scope))
            confirmed += 1
        for mode in ("lax", "strict"):
            record = {
                "cmd": "eval", "size": size, "rel": _rel_cells(structure),
                "rows": [list(r) for r in team.rows], "formula": text, "mode": mode,
            }
            got, us = answer(record, directory)
            if too_slow(record, us):
                continue
            if mode == "lax" and eso_value is not None and (got["verdict"] == "SAT") != eso_value:
                raise SystemExit(f"team and ESO routes disagree: {json.dumps(record)}")
            yield confirm(record, got)
            made += 1
    print(f"team-eval: {confirmed} instances confirmed by the ESO route", file=sys.stderr)


# ---------------------------------------------------------------------------
# validity
# ---------------------------------------------------------------------------


def validity(rng: random.Random, count: int, directory: Path):
    made = 0
    while made < count:
        # Lax search at size 3 runs into tens of seconds per sentence (see
        # README), so size 3 is checked in strict semantics only.
        max_size = 2 if rng.random() < 0.85 else 3
        mode = rng.choice(("lax", "strict")) if max_size == 2 else "strict"
        matrix = random_formula(
            rng, ["x", "y"], depth=rng.randint(2, 4), relations={"R": 2},
            quantifier_pool=("q1",),
        )
        sentence = matrix
        for var in ("y", "x"):
            sentence = Exists(var, sentence) if rng.random() < 0.5 else Forall(var, sentence)
        text = format_formula(sentence)
        if len(text) > MAX_FORMULA_CHARS or parse_formula(text) != sentence:
            continue
        structures = sum(2 ** (n * n) for n in range(1, max_size + 1))
        if estimate_eval_cost(sentence, 1, max_size) * structures > VALIDITY_COST_CAP * max_size**2:
            continue
        record = {"cmd": "validity", "formula": text, "max_size": max_size, "mode": mode}
        got, us = answer(record, directory)
        if too_slow(record, us):
            continue
        yield confirm(record, got)
        made += 1


# ---------------------------------------------------------------------------
# entailment
# ---------------------------------------------------------------------------

UNIVERSE = ("a", "b", "c", "d", "e")


def _tuple(rng: random.Random, pool, low: int, high: int) -> tuple:
    return tuple(sorted(rng.sample(list(pool), rng.randint(low, min(high, len(pool))))))


def _mixed_atom(rng: random.Random, universe):
    if rng.random() < 0.4:
        return DepStatement(_tuple(rng, universe, 0, 2), _tuple(rng, universe, 1, 1))
    return IndStatement(
        _tuple(rng, universe, 1, 2), _tuple(rng, universe, 0, 1), _tuple(rng, universe, 1, 2)
    )


def _is_mixed(atoms) -> bool:
    if all(isinstance(a, DepStatement) for a in atoms):
        return False
    return not all(isinstance(a, IndStatement) and a.is_unconditional_single() for a in atoms)


def _entail_instance(rng: random.Random, fragment: str):
    if fragment == "dep":
        universe = UNIVERSE[: rng.randint(2, 5)]
        premises = random_dep_statements(rng, universe, max_atoms=6)
        goal = DepStatement(_tuple(rng, universe, 0, 2), _tuple(rng, universe, 1, 2))
    elif fragment == "ind":
        universe = UNIVERSE[: rng.randint(2, 5)]
        premises = random_ind_statements(rng, universe, max_atoms=6)
        goal = IndStatement((rng.choice(universe),), (), (rng.choice(universe),))
    else:
        universe = UNIVERSE[:3]
        premises = tuple(_mixed_atom(rng, universe) for _ in range(rng.randint(1, 3)))
        goal = _mixed_atom(rng, universe)
        if not _is_mixed(premises + (goal,)):
            return None
    return [format_atom_statement(a) for a in premises], format_atom_statement(goal)


def entailment(rng: random.Random, count: int, directory: Path):
    # Per fragment: entail queries with entailed and not-entailed goals in
    # equal numbers, plus counterexample queries in the two exact fragments.
    plan = {("entail", "dep"): 0.28, ("entail", "ind"): 0.28, ("entail", "mixed"): 0.12,
            ("counterexample", "dep"): 0.16, ("counterexample", "ind"): 0.16}
    for (cmd, fragment), share in plan.items():
        want = {True: round(count * share / 2), False: round(count * share / 2)}
        while any(want.values()):
            instance = _entail_instance(rng, fragment)
            if instance is None:
                continue
            atoms, goal = instance
            record = {"cmd": cmd, "fragment": fragment, "atoms": atoms, "goal": goal}
            got, us = answer(record, directory)
            if too_slow(record, us):
                continue
            if cmd == "entail":
                entailed = got["semantic"] == "ENTAILED"
                if fragment != "mixed" and (got["syntactic"] == "DERIVED") != entailed:
                    raise SystemExit(f"exact-fragment engines disagree: {json.dumps(record)}")
            else:
                entailed = got["verdict"] == "DERIVABLE"
            if not want[entailed]:
                continue
            want[entailed] -= 1
            yield confirm(record, got)


# ---------------------------------------------------------------------------
# cross-check
# ---------------------------------------------------------------------------


# Disagreements found while building earlier, larger pools.  They stay in
# the pool so the defect shows in every run until it is fixed.
KNOWN_DISAGREEMENTS = [
    {
        "cmd": "branch", "size": 3, "rel": [[0, 2], [1, 1], [2, 0], [2, 1]],
        "formula": "branch {forall x exists y ; forall u exists v}. v = x or R(u, y)",
    },
]


def cross_check(rng: random.Random, count: int, directory: Path):
    made = 0
    for record in KNOWN_DISAGREEMENTS:
        got, _ = answer(record, directory)
        if got["agree"] == "yes":
            continue  # fixed: nothing left to show
        yield confirm(dict(record, known_defect="the two routes disagree"), got)
        made += 1
    while made < count:
        if made % 3 == 0:
            structure, team, formula = random_checkable_instance(
                rng, max_size=3, depth=3, max_bits=16
            )
            record = {
                "cmd": "eso-check", "size": structure.size, "rel": _rel_cells(structure),
                "scope": list(team.scope), "rows": [list(r) for r in team.rows],
                "formula": format_formula(formula),
            }
        else:
            size = rng.choice((2, 3))
            structure = random_structure(rng, size, {"R": 2})
            matrix = random_fo_formula(
                rng, ["x", "y", "u", "v"], depth=rng.randint(1, 3), relations={"R": 2}
            )
            record = {
                "cmd": "branch", "size": size, "rel": _rel_cells(structure),
                "formula": format_formula(Henkin((("x", "y"), ("u", "v")), matrix)),
            }
            if record in KNOWN_DISAGREEMENTS:
                continue
        got, us = answer(record, directory)
        if too_slow(record, us):
            continue
        if got["agree"] != "yes":
            # Kept, not dropped: the benchmark reports it as a known defect.
            record["known_defect"] = "the two routes disagree"
            print(f"known defect: {json.dumps(record)} -> {got}", file=sys.stderr)
        yield confirm(record, got)
        made += 1


GENERATORS = {
    "team-eval": team_eval,
    "validity": validity,
    "entailment": entailment,
    "cross-check": cross_check,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(GENERATORS))
    args = parser.parse_args()
    workloads.POOL_DIR.mkdir(exist_ok=True)
    for index, name in enumerate(workloads.WORKLOADS):
        if name not in args.workloads:
            continue
        rng = random.Random(GENERATION_SEED + index)
        start = time.time()
        with tempfile.TemporaryDirectory(dir=workloads.POOL_DIR) as tmp:
            records = list(GENERATORS[name](rng, POOL_SIZES[name], Path(tmp)))
        with open(workloads.pool_path(name), "w") as fh:
            for record in records:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        print(f"{name}: {len(records)} records in {time.time() - start:.1f} s", file=sys.stderr)
    for key, (count, slowest) in sorted(excluded.items()):
        print(f"left out: {count} {key} queries over {MAX_QUERY_US / 1e6:g} s, "
              f"slowest {slowest / 1e6:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
