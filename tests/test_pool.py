"""Every benchmark pool query, run through the CLI, gets its reference verdict.

``bench/workloads.py`` renders a pool record into input files and an argv
list, and checks a printed report against the record's reference verdict;
the benchmark counts a query that fails the check as wrong.  Running the
same check here puts that gate into the test suite, along with the CLI
contract on these inputs: exit 0 (1 for an unsatisfied ``eval``) and
nothing on stderr.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from teamlogic.cli import main

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pool_queries_get_their_reference_verdicts(tmp_path, workload):
    failures = []
    for index, record in enumerate(workloads.load_pool(workload)):
        argv, files = workloads.render(record, tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        report = out.getvalue()
        problem = workloads.check(record, workloads.verdict(record["cmd"], report))
        expected_code = 1 if record["cmd"] == "eval" and report.startswith("UNSAT") else 0
        if problem is not None or code != expected_code or err.getvalue():
            failures.append((index, code, problem, err.getvalue()))
    assert failures == []
