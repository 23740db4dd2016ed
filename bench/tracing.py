"""Per-layer tracing of teamlogic from outside the package.

The tracer wraps public functions of each module and patches the wrapper
into every teamlogic module that imported the function, so a call is
attributed to its caller (``evaluate`` called from ``eso`` is the ESO
check's team route, called from ``branching`` the compositional route).
Layer-boundary calls become spans kept in memory: name, start, end,
parent span and query id, plus self time, which is the span's duration
minus the time its child spans and light calls cover.  Hot kernels (atom
checks, ``duplicate``, compiled first-order matrices, ``Team``
construction) get light wrappers that only count calls and add up time.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter_ns

# (defining module, function) -> span name.  Overrides by importing module
# are in CALLER_NAMES.
SPANS = {
    ("syntax", "parse_formula"): "syntax.parse",
    ("syntax", "parse_atoms_text"): "syntax.parse",
    ("syntax", "parse_atom_statement"): "syntax.parse",
    ("syntax", "desugar_slash"): "syntax.desugar",
    ("syntax", "desugar_henkin"): "syntax.desugar",
    ("core", "parse_structure"): "core.parse",
    ("core", "parse_team"): "core.parse",
    ("semantics", "evaluate"): "semantics.evaluate",
    ("semantics", "sentence_sat"): "semantics.sentence_sat",
    ("semantics", "validity_search"): "semantics.validity_search",
    ("atoms", "rule_closure"): "atoms.rule_closure",
    ("atoms", "semantic_entails"): "atoms.semantic_entails",
    ("atoms", "armstrong_derives"): "atoms.syntactic",
    ("atoms", "independence_derives"): "atoms.syntactic",
    ("atoms", "counterexample_armstrong"): "atoms.counterexample",
    ("atoms", "counterexample_independence"): "atoms.counterexample",
    ("eso", "translate"): "eso.translate",
    ("eso", "eval_eso"): "eso.eval_eso",
    ("firstorder", "compile_formula"): "firstorder.compile",
    ("branching", "henkin_eval_skolem"): "branching.skolem",
}

CALLER_NAMES = {
    ("eso", "semantics.evaluate"): "eso.team_route",
    ("branching", "semantics.evaluate"): "branching.compositional",
}

# Light wrappers: (defining module, function) -> counter name, where
# "{caller}" is the importing module.
LIGHT = {
    ("semantics", "satisfies_dep"): "{caller}.atom_checks",
    ("semantics", "satisfies_ind"): "{caller}.atom_checks",
    ("core", "duplicate"): "core.duplicate",
}

# Recursive functions: their calls inside the defining module are parts of
# one outer call, so they are not wrapped there.
RECURSIVE = {("firstorder", "compile_formula")}

# Counter for each call of a compiled first-order matrix, by the module
# that compiled it.
MATRIX_COUNTERS = {"eso": "eso.tables_tried", "branching": "branching.skolem.matrix_calls"}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent, query, self_ns)
        self.stack: list = []  # open spans: [index, covered_ns]
        self.calls: Counter = Counter()
        self.ns: Counter = Counter()
        self.query = None
        self._patches: list = []
        self._build()

    # -- wrappers -------------------------------------------------------------

    def span(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[index] = (name, start, end, parent, tracer.query, end - start - frame[1])
            if after is not None:
                result = after(args, result)
            return result

        return wrapper

    def light(self, name: str, fn):
        calls, ns, stack = self.calls, self.ns, self.stack

        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                calls[name] += 1
                ns[name] += elapsed
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    # -- hooks reading results ------------------------------------------------

    def _closure_counts(self, args, result):
        self.calls["atoms.rule_closure.atoms"] += len(result.atoms)
        self.calls["atoms.rule_closure.steps"] += len(result.trace.steps)
        self.calls["atoms.rule_closure.truncated"] += bool(result.truncated)
        return result

    def _eso_cells(self, fn):
        def counted(structure, team, sentence, *rest, **kwargs):
            self.calls["eso.relation_cells"] += sum(
                structure.size**arity for _, arity in sentence.relation_vars
            )
            return fn(structure, team, sentence, *rest, **kwargs)

        return counted

    def _matrix(self, caller: str):
        counter = MATRIX_COUNTERS.get(caller, f"{caller}.matrix_calls")

        def after(args, compiled):
            inner = self.light("firstorder.matrix", compiled)
            calls = self.calls

            def matrix(*a):
                calls[counter] += 1
                return inner(*a)

            return matrix

        return after

    # -- patching -------------------------------------------------------------

    def _modules(self):
        prefix = "teamlogic."
        return {
            name[len(prefix):]: mod
            for name, mod in sys.modules.items()
            if name.startswith(prefix) and mod is not None
        }

    def _build(self):
        modules = self._modules()
        targets = {}
        for (home, fname), spec in list(SPANS.items()) + list(LIGHT.items()):
            fn = getattr(modules[home], fname)
            targets[id(fn)] = (fname, fn, spec, (home, fname) in LIGHT)
        for caller, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is None or (caller, hit[0]) in RECURSIVE:
                    continue
                _, fn, spec, light = hit
                if light:
                    wrapper = self.light(spec.format(caller=caller), fn)
                else:
                    name = CALLER_NAMES.get((caller, spec), spec)
                    after = None
                    target = fn
                    if name == "atoms.rule_closure":
                        after = self._closure_counts
                    elif name == "eso.eval_eso":
                        target = self._eso_cells(fn)
                    elif name == "firstorder.compile":
                        after = self._matrix(caller)
                    wrapper = self.span(name, target, after)
                self._patches.append((mod, attr, value, wrapper))
        team_cls = modules["core"].Team
        original_init = team_cls.__init__
        calls = self.calls

        def team_init(team, *args, **kwargs):
            original_init(team, *args, **kwargs)
            calls["core.team.built"] += 1
            calls["core.team.rows_built"] += len(team.rows)

        self._patches.append((team_cls, "__init__", original_init, team_init))
        closure_cls = modules["atoms"].ClosureResult
        derivation_of = closure_cls.derivation_of
        self._patches.append(
            (closure_cls, "derivation_of", derivation_of,
             self.span("atoms.derivation_of", derivation_of))
        )

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, inclusive ns (outermost of a name), self ns."""
        out: dict = {}
        spans = self.spans
        for name, start, end, parent, _, self_ns in spans:
            calls, inclusive, own = out.get(name, (0, 0, 0))
            nested = parent >= 0 and spans[parent][0] == name
            out[name] = (calls + 1, inclusive + (0 if nested else end - start), own + self_ns)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index\tquery\tname\tstart_ns\tend_ns\tparent\tself_ns\n")
            for i, (name, start, end, parent, query, self_ns) in enumerate(self.spans):
                fh.write(f"{i}\t{query}\t{name}\t{start}\t{end}\t{parent}\t{self_ns}\n")
