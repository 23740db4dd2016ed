"""The teamlogic benchmark: time to a correct verdict on four query workloads.

    python3 bench/run.py --workload team-eval --seed 1 --seconds 24 --trace 0

One process, one client, closed loop: each query is a teamlogic CLI
subcommand handler (``args.handler(args, out)``, what ``cli.main``
dispatches to) whose argv was parsed once at set-up and whose input files
were written from the workload's pool.  The timed part of a query is what
an invocation does after start-up: read and parse its files, search,
print the verdict.  A query fails when its handler raises.  The run makes
whole passes over the pool, each in an order drawn from the seed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes one pass,
running each query untraced and then traced, and prints the per-layer
metrics (see bench/README.md).  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_REPEATS = 5
HASH_SEED = "0"
MIN_QUERIES = 200  # so at least 10 samples lie beyond the 95th percentile

END_TO_END = {
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.handler.self_ms": "ms",
    "syntax.parse.ms": "ms",
    "syntax.desugar.ms": "ms",
    "core.parse.ms": "ms",
    "core.team.built": "count",
    "core.team.rows_built": "count",
    "core.duplicate.calls": "count",
    "core.duplicate.ms": "ms",
    "semantics.evaluate.calls": "count",
    "semantics.evaluate.self_ms": "ms",
    "semantics.atom_checks.calls": "count",
    "semantics.atom_checks.ms": "ms",
    "semantics.budget_exhausted": "count",
    "semantics.sentence_sat.calls": "count",
    "semantics.structures_per_query": "ratio",
    "semantics.validity_search.self_ms": "ms",
    "atoms.rule_closure.calls": "count",
    "atoms.rule_closure.ms": "ms",
    "atoms.rule_closure.atoms": "count",
    "atoms.rule_closure.steps": "count",
    "atoms.rule_closure.truncated": "count",
    "atoms.derivation_of.ms": "ms",
    "atoms.semantic_entails.calls": "count",
    "atoms.semantic_entails.self_ms": "ms",
    "atoms.atom_checks.calls": "count",
    "atoms.checks_per_verdict": "ratio",
    "atoms.syntactic.ms": "ms",
    "atoms.counterexample.ms": "ms",
    "eso.translate.ms": "ms",
    "eso.eval_eso.calls": "count",
    "eso.eval_eso.self_ms": "ms",
    "eso.relation_cells": "count",
    "eso.tables_tried": "count",
    "eso.tables_per_call": "ratio",
    "eso.team_route.ms": "ms",
    "firstorder.compile.ms": "ms",
    "firstorder.matrix.calls": "count",
    "firstorder.matrix.ms": "ms",
    "branching.skolem.ms": "ms",
    "branching.skolem.matrix_calls": "count",
    "branching.compositional.ms": "ms",
    "trace.overhead_frac": "ratio",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked (no program, no pool)."""


def import_program():
    """Import teamlogic.cli afresh from this checkout's src/ directory."""
    if not (SRC / "teamlogic" / "__init__.py").is_file():
        raise SetupError(f"no teamlogic package under {SRC}")
    for name in [n for n in sys.modules if n == "teamlogic" or n.startswith("teamlogic.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("teamlogic.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"teamlogic was imported from {cli.__file__}, not from {SRC}")
    return cli


def cycles(count: int, rng: random.Random):
    """Pool indices in passes: each pass visits every record once, in a new order."""
    while True:
        order = list(range(count))
        rng.shuffle(order)
        yield order


class Session:
    """One set-up: program imported, inputs written, argv parsed."""

    def __init__(self, workload: str, seed: int):
        parser = import_program().build_parser()
        self.records = workloads.load_pool(workload)
        rng = random.Random(f"{workload}/{seed}")
        OUT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"inputs-{workload}-", dir=OUT))
        digest = hashlib.sha256()
        written: set[str] = set()
        self.args = []
        for record in self.records:
            argv, files = workloads.render(record, self.dir)
            for name, text in files.items():
                if name not in written:
                    (self.dir / name).write_text(text)
                    written.add(name)
                digest.update(text.encode())
            digest.update("\0".join(argv).replace(str(self.dir), "").encode())
            self.args.append(parser.parse_args(argv))
        self.passes = cycles(len(self.records), rng)
        self.first_pass = next(self.passes)
        digest.update(",".join(map(str, self.first_pass)).encode())
        self.digest = digest.hexdigest()[:16]
        self.cache_clears = [
            obj.cache_clear
            for name, mod in list(sys.modules.items())
            if name.startswith("teamlogic")
            for obj in vars(mod).values()
            if callable(getattr(obj, "cache_clear", None))
        ]

    def queries(self):
        """Passes over the pool; the first is fixed at set-up for the digest."""
        yield self.first_pass
        yield from self.passes

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class Outcomes:
    """Latencies, failures and printed reports of one loop."""

    def __init__(self):
        self.latencies: list[float] = []
        self.reports: Counter = Counter()  # (record index, output) -> times seen
        self.errors: Counter = Counter()
        self.pass_rates: list[float] = []  # completed queries per second, per pass

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.errors.values())


def run_query(session: Session, index: int, outcomes: Outcomes, handler=None) -> float:
    for clear in session.cache_clears:
        clear()  # a CLI invocation starts with empty caches
    args = session.args[index]
    call = handler or args.handler
    out = io.StringIO()
    start = time.perf_counter()
    try:
        call(args, out)
    except Exception as exc:  # any raised error is a failed query
        elapsed = time.perf_counter() - start
        outcomes.errors[type(exc).__name__] += 1
        outcomes.latencies.append(float("inf"))  # a failure misses every latency limit
        return elapsed
    elapsed = time.perf_counter() - start
    outcomes.latencies.append(elapsed)
    outcomes.reports[(index, out.getvalue())] += 1
    return elapsed


def wrong_verdicts(session: Session, outcomes: Outcomes) -> tuple[int, list[str]]:
    wrong = 0
    reasons = []
    for (index, text), times in outcomes.reports.items():
        record = session.records[index]
        try:
            problem = workloads.check(record, workloads.verdict(record["cmd"], text))
        except (ValueError, KeyError, IndexError) as exc:
            problem = f"unreadable report: {exc}"
        if problem is not None:
            wrong += times
            reasons.append(f"query {index} ({session.records[index]['cmd']}): {problem}")
    return wrong, reasons


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(session: Session, seconds: float) -> tuple[Outcomes, float]:
    """Whole passes over the pool until ``seconds`` and MIN_QUERIES are reached.

    Every run thus times the same multiset of queries, whatever the seed.
    """
    outcomes = Outcomes()
    start = time.perf_counter()
    for order in session.queries():
        pass_start = time.perf_counter()
        failed = outcomes.failed
        for index in order:
            run_query(session, index, outcomes)
        now = time.perf_counter()
        outcomes.pass_rates.append((len(order) - outcomes.failed + failed) / (now - pass_start))
        if outcomes.attempted >= MIN_QUERIES and now - start >= seconds:
            break
    return outcomes, time.perf_counter() - start


def trace(session: Session, workload: str, seed: int) -> tuple[Outcomes, dict]:
    from tracing import Tracer

    tracer = Tracer()
    plain, traced = Outcomes(), Outcomes()
    plain_s = traced_s = 0.0
    for qid, index in enumerate(session.first_pass):
        plain_s += run_query(session, index, plain)
        tracer.query = qid
        tracer.install()
        try:
            handler = tracer.span("cli.handler", session.args[index].handler)
            traced_s += run_query(session, index, traced, handler)
        finally:
            tracer.uninstall()
    tracer.write(OUT / f"trace-{workload}-seed{seed}.tsv")
    budget_errors = traced.errors["BudgetExceededError"]
    return traced, layer_metrics(tracer, budget_errors, traced_s / plain_s - 1)


def layer_metrics(tracer, budget_errors: int, overhead: float) -> dict:
    spans = tracer.totals()

    def calls(name):
        return spans.get(name, (0, 0, 0))[0]

    def ms(name):
        return spans.get(name, (0, 0, 0))[1] / 1e6

    def self_ms(name):
        return spans.get(name, (0, 0, 0))[2] / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    light = tracer.calls
    values = {
        "cli.handler.self_ms": self_ms("cli.handler"),
        "syntax.parse.ms": ms("syntax.parse"),
        "syntax.desugar.ms": ms("syntax.desugar"),
        "core.parse.ms": ms("core.parse"),
        "core.team.built": light["core.team.built"],
        "core.team.rows_built": light["core.team.rows_built"],
        "core.duplicate.calls": light["core.duplicate"],
        "core.duplicate.ms": tracer.ns["core.duplicate"] / 1e6,
        "semantics.evaluate.calls": calls("semantics.evaluate"),
        "semantics.evaluate.self_ms": self_ms("semantics.evaluate"),
        "semantics.atom_checks.calls": light["semantics.atom_checks"],
        "semantics.atom_checks.ms": tracer.ns["semantics.atom_checks"] / 1e6,
        "semantics.budget_exhausted": budget_errors,
        "semantics.sentence_sat.calls": calls("semantics.sentence_sat"),
        "semantics.structures_per_query": ratio(
            calls("semantics.sentence_sat"), calls("semantics.validity_search")
        ),
        "semantics.validity_search.self_ms": self_ms("semantics.validity_search"),
        "atoms.rule_closure.calls": calls("atoms.rule_closure"),
        "atoms.rule_closure.ms": ms("atoms.rule_closure"),
        "atoms.rule_closure.atoms": light["atoms.rule_closure.atoms"],
        "atoms.rule_closure.steps": light["atoms.rule_closure.steps"],
        "atoms.rule_closure.truncated": light["atoms.rule_closure.truncated"],
        "atoms.derivation_of.ms": ms("atoms.derivation_of"),
        "atoms.semantic_entails.calls": calls("atoms.semantic_entails"),
        "atoms.semantic_entails.self_ms": self_ms("atoms.semantic_entails"),
        "atoms.atom_checks.calls": light["atoms.atom_checks"],
        "atoms.checks_per_verdict": ratio(
            light["atoms.atom_checks"], calls("atoms.semantic_entails")
        ),
        "atoms.syntactic.ms": ms("atoms.syntactic"),
        "atoms.counterexample.ms": ms("atoms.counterexample"),
        "eso.translate.ms": ms("eso.translate"),
        "eso.eval_eso.calls": calls("eso.eval_eso"),
        "eso.eval_eso.self_ms": self_ms("eso.eval_eso"),
        "eso.relation_cells": light["eso.relation_cells"],
        "eso.tables_tried": light["eso.tables_tried"],
        "eso.tables_per_call": ratio(light["eso.tables_tried"], calls("eso.eval_eso")),
        "eso.team_route.ms": ms("eso.team_route"),
        "firstorder.compile.ms": ms("firstorder.compile"),
        "firstorder.matrix.calls": light["firstorder.matrix"],
        "firstorder.matrix.ms": tracer.ns["firstorder.matrix"] / 1e6,
        "branching.skolem.ms": ms("branching.skolem"),
        "branching.skolem.matrix_calls": light["branching.skolem.matrix_calls"],
        "branching.compositional.ms": ms("branching.compositional"),
        "trace.overhead_frac": overhead,
    }
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="teamlogic benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_times = []
    session = None
    try:
        for _ in range(SETUP_REPEATS):
            if session is not None:
                session.close()
            start = time.perf_counter()
            session = Session(args.workload, args.seed)
            setup_times.append(time.perf_counter() - start)
    except (SetupError, ImportError, OSError) as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        if session is not None:
            session.close()
        return 2

    try:
        if args.trace:
            outcomes, metrics = trace(session, args.workload, args.seed)
            wall = None
            units = PER_LAYER
        else:
            outcomes, wall = measure(session, args.seconds)
            metrics = {
                "queries_per_s": statistics.median(outcomes.pass_rates),
                "latency_p50_ms": percentile(outcomes.latencies, 0.50) * 1e3,
                "latency_p95_ms": percentile(outcomes.latencies, 0.95) * 1e3,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
        wrong, reasons = wrong_verdicts(session, outcomes)
    finally:
        session.close()

    for reason in reasons[:20]:
        print(f"WRONG {reason}", file=sys.stderr)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_digest": session.digest,
        "pool_records": len(session.records),
        "attempted": outcomes.attempted,
        "beyond_p95": outcomes.attempted - math.ceil(0.95 * outcomes.attempted),
        "failed_frac": outcomes.failed / outcomes.attempted,
        "wrong_verdicts": wrong,
        "errors": dict(outcomes.errors),
        "loop_wall_s": wall,
        "pass_rates": [round(r, 3) for r in outcomes.pass_rates],
        "known_defect_queries": sum(
            times for (index, _), times in outcomes.reports.items()
            if session.records[index].get("known_defect")
        ),
    }
    print("summary " + json.dumps(summary))
    result = {
        "correct": wrong == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # String hashing decides set and dict orders inside the searches, and
    # with it up to a third of the closure's work from one process to the
    # next; one fixed hash seed makes every run do the same work.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.exit(main())
