"""Query pools of the benchmark: rendering to CLI inputs, and verdict checks.

A pool record is one CLI query with its reference verdict.  Records are
stored in ``bench/pool/<workload>.jsonl`` in a compact form that does not
depend on the program's own formatters, so the same files and argv lists
are produced on every commit.  :func:`render` turns a record into input
files and an argv list; :func:`check` compares the printed output with the
reference, compares verdicts rather than bytes, and re-checks every
printed witness.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

WORKLOADS = ("team-eval", "validity", "entailment", "cross-check")

POOL_DIR = Path(__file__).resolve().parent / "pool"


def pool_path(workload: str) -> Path:
    return POOL_DIR / f"{workload}.jsonl"


def load_pool(workload: str) -> list[dict]:
    with open(pool_path(workload)) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# Input files and argv
# ---------------------------------------------------------------------------


def structure_text(size: int, rel: list) -> str:
    """Domain elements are named by their ids, R is the only relation."""
    cells = "".join(f" ({a},{b})" for a, b in rel)
    return f"domain: {' '.join(map(str, range(size)))}\nrelation R/2:{cells}\n"


def team_text(scope: list, rows: list) -> str:
    lines = ["vars: " + " ".join(scope)]
    lines.extend(" ".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def render(record: dict, directory: Path) -> tuple[list[str], dict[str, str]]:
    """Input files (name -> text) and the argv list of one query.

    Paths in the argv point into ``directory``; the caller writes the files.
    A file is named after its content, so queries that share a structure
    or team share one file.
    """
    cmd = record["cmd"]
    files: dict[str, str] = {}

    def put(suffix: str, text: str) -> str:
        name = f"{hashlib.sha1(text.encode()).hexdigest()[:16]}.{suffix}"
        files[name] = text
        return str(directory / name)

    if cmd == "eval":
        s = put("structure", structure_text(record["size"], record["rel"]))
        t = put("team", team_text(["x", "y"], record["rows"]))
        argv = ["eval", s, t, record["formula"], "--semantics", record["mode"]]
    elif cmd == "validity":
        argv = [
            "validity", record["formula"],
            "--max-size", str(record["max_size"]), "--semantics", record["mode"],
        ]
    elif cmd in ("entail", "counterexample"):
        a = put("atoms", "".join(f"{atom}\n" for atom in record["atoms"]))
        argv = [cmd, a, "--goal", record["goal"]]
    elif cmd == "eso-check":
        s = put("structure", structure_text(record["size"], record["rel"]))
        t = put("team", team_text(record["scope"], record["rows"]))
        argv = ["eso-check", s, t, record["formula"]]
    elif cmd == "branch":
        s = put("structure", structure_text(record["size"], record["rel"]))
        argv = ["branch", record["formula"], s]
    else:
        raise ValueError(f"unknown query kind {cmd!r}")
    return argv, files


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


def _team_block(lines: list[str]) -> tuple[list[str], list[tuple[str, ...]]]:
    """Scope and rows of a printed team, given the lines from ``vars:`` on."""
    scope = lines[0][len("vars:"):].split()
    rows = [tuple(line.split()) if line != "()" else () for line in lines[1:] if line]
    return scope, rows


def _match(pattern: str, line: str) -> re.Match:
    m = re.fullmatch(pattern, line)
    if m is None:
        raise ValueError(f"unexpected report line {line!r}")
    return m


def verdict(cmd: str, text: str) -> dict:
    """The verdict fields of one printed report (raises ValueError if unreadable)."""
    lines = text.splitlines() or [""]
    if cmd == "eval":
        return {"verdict": _match(r"(SAT|UNSAT) \((?:lax|strict)\)", lines[0]).group(1)}
    if cmd == "validity":
        if _match(r"(VALID-UP-TO-\d+|COUNTERMODEL size \d+) \((?:lax|strict)\)", lines[0]).group(1).startswith("VALID"):
            return {"verdict": "VALID"}
        return {"verdict": "COUNTERMODEL", "witness": "\n".join(lines[1:]) + "\n"}
    if cmd == "entail":
        out: dict = {}
        for i, line in enumerate(lines):
            if line.startswith("SYNTACTIC: "):
                out["syntactic"] = "NOT DERIVED" if "NOT DERIVED" in line else "DERIVED"
            elif line.startswith("SEMANTIC: "):
                out["semantic"] = "NOT ENTAILED" if "NOT ENTAILED" in line else "ENTAILED"
                if out["semantic"] == "NOT ENTAILED":
                    out["witness"] = _team_block(lines[i + 2:])
        if "syntactic" not in out or "semantic" not in out:
            raise ValueError("missing SYNTACTIC or SEMANTIC line")
        return out
    if cmd == "counterexample":
        if lines[0].startswith("DERIVABLE"):
            return {"verdict": "DERIVABLE"}
        if not lines[0].startswith("countermodel team"):
            raise ValueError(f"unexpected report {lines[0]!r}")
        return {"verdict": "COUNTERMODEL", "witness": _team_block(lines[1:])}
    if cmd == "eso-check":
        m = _match(r"team=(SAT|UNSAT) eso=(SAT|UNSAT) agree=(yes|no)", lines[0])
        return {"team": m.group(1), "eso": m.group(2), "agree": m.group(3)}
    if cmd == "branch":
        m = _match(r"skolem=(TRUE|FALSE) compositional=(TRUE|FALSE) agree=(yes|no)", lines[0])
        return {"skolem": m.group(1), "compositional": m.group(2), "agree": m.group(3)}
    raise ValueError(f"unknown query kind {cmd!r}")


# ---------------------------------------------------------------------------
# Independent atom checks for printed countermodel teams
# ---------------------------------------------------------------------------


def parse_atom(text: str) -> tuple[str, list[list[str]]]:
    m = re.fullmatch(r"\s*(dep|ind)\((.*)\)\s*", text)
    if m is None:
        raise ValueError(f"not an atom: {text!r}")
    parts = [p.split() for p in m.group(2).split(";")]
    if len(parts) != (2 if m.group(1) == "dep" else 3):
        raise ValueError(f"malformed atom: {text!r}")
    return m.group(1), parts


def atom_holds(atom: str, scope: list[str], rows) -> bool:
    """Team semantics of one dep/ind atom, written from the definitions."""
    kind, parts = parse_atom(atom)
    col = {v: i for i, v in enumerate(scope)}
    proj = [[tuple(r[col[v]] for v in part) for r in rows] for part in parts]
    if kind == "dep":
        fixed: dict = {}
        return all(fixed.setdefault(k, v) == v for k, v in zip(proj[0], proj[1]))
    left, cond, right = proj
    classes: dict = {}
    for lv, cv, rv in zip(left, cond, right):
        classes.setdefault(cv, set()).add((lv, rv))
    for pairs in classes.values():
        ls = {lv for lv, _ in pairs}
        rs = {rv for _, rv in pairs}
        if len(pairs) != len(ls) * len(rs):
            return False
    return True


def refutes(record: dict, witness) -> bool:
    """Does the printed team satisfy every premise and falsify the goal?"""
    scope, rows = witness
    if len(rows) != len(set(rows)):
        return False
    return all(atom_holds(a, scope, rows) for a in record["atoms"]) and not atom_holds(
        record["goal"], scope, rows
    )


def falsifies(record: dict, structure_text: str) -> bool:
    """Does the printed structure falsify the validity query's sentence?

    Uses the program's parser and evaluator, imported at call time.
    """
    from teamlogic.core import parse_structure
    from teamlogic.semantics import sentence_sat
    from teamlogic.syntax import desugar_henkin, desugar_slash, parse_formula

    sentence = desugar_henkin(desugar_slash(parse_formula(record["formula"])))
    return not sentence_sat(parse_structure(structure_text), sentence, record["mode"])


def check(record: dict, got: dict) -> str | None:
    """None when the output agrees with the reference, else the reason."""
    ref = record["ref"]
    cmd = record["cmd"]
    if cmd in ("eval", "validity", "counterexample"):
        if got["verdict"] != ref["verdict"]:
            return f"verdict {got['verdict']}, reference {ref['verdict']}"
        if cmd == "validity" and got["verdict"] == "COUNTERMODEL":
            if not falsifies(record, got["witness"]):
                return "printed countermodel does not falsify the sentence"
        if cmd == "counterexample" and got["verdict"] == "COUNTERMODEL":
            if not refutes(record, got["witness"]):
                return "printed team does not separate premises from goal"
        return None
    if cmd == "entail":
        if got["semantic"] == "NOT ENTAILED" and not refutes(record, got["witness"]):
            return "printed team does not separate premises from goal"
        if record["fragment"] == "mixed":
            # The forward-chaining engine is not claimed complete, so only
            # soundness is checked: a bounded-search NOT ENTAILED backed by
            # a re-checked team stands even where the reference found none.
            if got["semantic"] == "ENTAILED" and ref["semantic"] != "ENTAILED":
                return "semantic ENTAILED, reference has a countermodel"
            if got["syntactic"] == "DERIVED" and "NOT ENTAILED" in (
                got["semantic"], ref["semantic"]
            ):
                return "syntactic DERIVED but not semantically entailed"
            return None
        for key in ("syntactic", "semantic"):
            if got[key] != ref[key]:
                return f"{key} {got[key]}, reference {ref[key]}"
        return None
    # eso-check and branch: the first route defines the semantics, the
    # second is the cross-check.
    primary = "team" if cmd == "eso-check" else "skolem"
    if record.get("known_defect") and got[primary] == ref[primary] and got["agree"] == "yes":
        return None  # the recorded disagreement is fixed
    for key, value in ref.items():
        if got[key] != value:
            return f"{key}={got[key]}, reference {value}"
    return None
