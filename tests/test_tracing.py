"""The benchmark's per-layer tracer must keep finding what it patches.

``bench/tracing.py`` wraps package functions by name; renaming or removing
one of them would otherwise only show up as a failing traced benchmark run.
"""

import importlib.util
from pathlib import Path

# the tracer patches loaded modules
from teamlogic import atoms, branching, cli, core, eso, semantics

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_uninstall_restores_every_patch():
    tracer = _load_tracing().Tracer()
    patches = [(owner, attr, original) for owner, attr, original, _ in tracer._patches]
    targets = {(owner, attr) for owner, attr, _ in patches}
    for expected in [
        (cli, "parse_atom_statement"),
        (semantics, "sentence_sat"),
        (atoms, "satisfies_dep"),
        (atoms, "satisfies_ind"),
        (atoms.ClosureResult, "derivation_of"),
        (core.Team, "__init__"),
        # the eso.tables_tried and branching.skolem.matrix_calls counters
        (eso, "compile_formula"),
        (branching, "compile_formula"),
    ]:
        assert expected in targets
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original
    tracer.install()
    try:
        for owner, attr, original in patches:
            assert vars(owner)[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original
