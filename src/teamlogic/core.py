"""Finite structures, teams, and the team algebra.

Element values are interned: a structure numbers its domain elements
0..n-1 in declaration order and keeps the textual names only for I/O.
Teams store rows as tuples of element ids, sorted and deduplicated, so
team equality and hashing are structural and every enumeration order in
this module is reproducible.  A single assignment is the one-row team.

All values are immutable after construction and safe to share between
threads; the generators returned by :func:`splits` and
:func:`enumerate_teams` are independent iterators with no shared state.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Callable, Iterable, Iterator

from .errors import ParseError, ScopeError, SearchSpaceError

VarTuple = tuple[str, ...]

#: Hard cap on the number of teams :func:`enumerate_teams` will agree to yield.
TEAM_ENUMERATION_CAP = 2**24

MODES = ("strict", "lax")

#: The characters a structure file would not read back in a domain element name.
_NAME_BREAKER = re.compile(r"[\s#,()]")


def check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown semantics mode {mode!r}; expected 'strict' or 'lax'")


class Structure:
    """A finite relational structure.

    Parameters
    ----------
    elements:
        Ordered domain element names; position in the sequence is the id.
        A name is what the file format reads back as itself: non-empty,
        with no whitespace, '#', ',', '(' or ')'.
    relations:
        Mapping ``name -> (arity, tuples)`` where each tuple lists element
        names (or already-interned ids).
    constants:
        Mapping ``name -> element name or id``.

    Equality between element ids is always available and is not stored as
    a relation table.
    """

    __slots__ = ("elements", "_index", "relations", "arities", "constants")

    def __init__(self, elements, relations=None, constants=None):
        self.elements: tuple[str, ...] = tuple(elements)
        if not self.elements:
            raise ValueError("domain must be non-empty")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate domain element name")
        # One test for all the names, since validity builds a structure per candidate.
        if not all(self.elements) or _NAME_BREAKER.search("".join(self.elements)):
            bad = next(e for e in self.elements if not e or _NAME_BREAKER.search(e))
            raise ValueError(f"domain element {bad!r} is empty or holds whitespace, #, ',', ( or )")
        self._index = {name: i for i, name in enumerate(self.elements)}

        rels: dict[str, frozenset[tuple[int, ...]]] = {}
        ars: dict[str, int] = {}
        for name, (arity, tuples) in (relations or {}).items():
            table = set()
            for tup in tuples:
                ids = tuple(self._resolve(x) for x in tup)
                if len(ids) != arity:
                    raise ValueError(
                        f"tuple {tup!r} does not match declared arity {arity} of {name}"
                    )
                table.add(ids)
            rels[name] = frozenset(table)
            ars[name] = int(arity)
        self.relations = rels
        self.arities = ars

        consts: dict[str, int] = {}
        for name, value in (constants or {}).items():
            consts[name] = self._resolve(value)
        self.constants = consts

    def _resolve(self, x) -> int:
        if isinstance(x, int):
            if not 0 <= x < len(self.elements):
                raise ValueError(f"element id {x} out of range")
            return x
        try:
            return self._index[x]
        except KeyError:
            raise ValueError(f"unknown domain element {x!r}") from None

    @classmethod
    def plain(cls, size: int) -> "Structure":
        """Pure-equality structure with elements named '0'..'size-1'."""
        if size < 1:
            raise ValueError("domain must be non-empty")
        return cls([str(i) for i in range(size)])

    @property
    def size(self) -> int:
        return len(self.elements)

    def domain_ids(self) -> range:
        return range(len(self.elements))

    def id_of(self, name: str) -> int:
        return self._resolve(name)

    def __eq__(self, other):
        if not isinstance(other, Structure):
            return NotImplemented
        return (
            self.elements == other.elements
            and self.relations == other.relations
            and self.arities == other.arities
            and self.constants == other.constants
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        return (
            f"Structure(|M|={len(self.elements)}, "
            f"relations={sorted(self.relations)}, constants={sorted(self.constants)})"
        )


class Team:
    """A set of assignments sharing one variable scope.

    Rows are kept as a sorted, duplicate-free tuple of id tuples.  The
    empty team is a valid value, as is the team over the empty scope
    containing the single empty assignment.
    """

    __slots__ = ("scope", "rows")

    def __init__(self, scope: Iterable[str], rows: Iterable[Iterable[int]] = ()):
        scope = tuple(scope)
        if len(set(scope)) != len(scope):
            raise ValueError("duplicate variable in team scope")
        canon = sorted({tuple(r) for r in rows})
        for r in canon:
            if len(r) != len(scope):
                raise ValueError(f"row {r!r} does not match scope {scope}")
        self.scope: VarTuple = scope
        self.rows: tuple[tuple[int, ...], ...] = tuple(canon)

    @classmethod
    def initial(cls) -> "Team":
        """The team over the empty scope holding the single empty assignment."""
        return cls((), [()])

    def positions(self, variables: Iterable[str]) -> tuple[int, ...]:
        out = []
        for v in variables:
            try:
                out.append(self.scope.index(v))
            except ValueError:
                raise ScopeError(f"variable {v!r} not in scope {self.scope}") from None
        return tuple(out)

    @property
    def is_empty(self) -> bool:
        return not self.rows

    def __len__(self):
        return len(self.rows)

    def __eq__(self, other):
        if not isinstance(other, Team):
            return NotImplemented
        return self.scope == other.scope and self.rows == other.rows

    def __hash__(self):
        return hash((self.scope, self.rows))

    def __repr__(self):
        return f"Team(scope={self.scope}, rows={len(self.rows)})"


def extend_scope(scope: VarTuple, var: str) -> tuple[VarTuple, int]:
    """The scope after quantifying ``var``, and the column ``var`` fills.

    A new variable is appended; a re-quantified one keeps its column, which
    the extension overwrites.
    """
    if var in scope:
        return scope, scope.index(var)
    return scope + (var,), len(scope)


def _extend_rows(team: Team, var: str, values_for_row: Callable) -> tuple[VarTuple, Iterator]:
    """Share the extend-or-overwrite logic of duplicate and supplement."""
    scope, pos = extend_scope(team.scope, var)
    rows = (r[:pos] + (a,) + r[pos + 1 :] for r in team.rows for a in values_for_row(r))
    return scope, rows


def duplicate(team: Team, var: str, structure: Structure) -> Team:
    """Universal extension: every row paired with every domain element."""
    domain = tuple(structure.domain_ids())
    scope, rows = _extend_rows(team, var, lambda r: domain)
    return Team(scope, rows)


def supplement(team: Team, var: str, choice: Callable, strict: bool = False) -> Team:
    """Existential extension by a choice function.

    ``choice`` maps each row of the team to a non-empty set of element
    ids; under ``strict`` every choice set must be a singleton.
    """
    chosen = {}
    for r in team.rows:
        vals = tuple(choice(r))
        if not vals:
            raise ValueError(f"empty choice set for row {r}")
        if strict and len(set(vals)) != 1:
            raise ValueError("strict supplementation requires singleton choice sets")
        chosen[r] = vals
    scope, rows = _extend_rows(team, var, lambda r: chosen[r])
    return Team(scope, rows)


def splits(team: Team, mode: str = "lax") -> Iterator[tuple[Team, Team]]:
    """Stream every cover ``(Y, Z)`` of the team's rows.

    Strict mode yields the 2^n disjoint covers, lax mode the 3^n
    overlapping ones; ``(team, empty)`` and ``(empty, team)`` are
    included in both.
    """
    check_mode(mode)
    options = ((True, False), (False, True))
    if mode == "lax":
        options = options + ((True, True),)
    rows = team.rows
    for flags in itertools.product(options, repeat=len(rows)):
        left = tuple(r for r, f in zip(rows, flags) if f[0])
        right = tuple(r for r, f in zip(rows, flags) if f[1])
        yield Team(team.scope, left), Team(team.scope, right)


def subsets(items: Iterable) -> Iterator[tuple]:
    """Every sub-tuple of ``items`` by increasing size, the empty one first."""
    items = tuple(items)
    for k in range(len(items) + 1):
        yield from itertools.combinations(items, k)


def enumerate_teams(
    variables: Iterable[str],
    domain: Iterable[int],
    max_rows: int | None = None,
    cap: int = TEAM_ENUMERATION_CAP,
) -> Iterator[Team]:
    """Yield every team over ``variables`` with rows from the assignment space.

    Teams appear in increasing cardinality, rows in lexicographic order,
    each team exactly once.  ``max_rows=None`` means the full powerset,
    guarded by ``cap``: if more than ``cap`` teams would be produced the
    call refuses up front.
    """
    variables = tuple(variables)
    domain = tuple(domain)
    if not domain:
        raise ValueError("domain must be non-empty")
    all_rows = sorted(itertools.product(domain, repeat=len(variables)))
    n = len(all_rows)
    k_max = n if max_rows is None else min(max_rows, n)
    total = sum(math.comb(n, k) for k in range(k_max + 1))
    if total > cap:
        raise SearchSpaceError(
            f"search space too large: {total} teams exceed the cap of {cap}"
        )

    def gen():
        for k in range(k_max + 1):
            for combo in itertools.combinations(all_rows, k):
                yield Team(variables, combo)

    return gen()


def team_to_relation(team: Team, variables: Iterable[str]) -> frozenset[tuple[int, ...]]:
    """The relation {(s(v1),...,s(vn)) : s in team} for vars in the scope."""
    pos = team.positions(variables)
    return frozenset(tuple(r[i] for i in pos) for r in team.rows)


# ---------------------------------------------------------------------------
# Text formats.
#
# Structure files are line oriented with '#' comments:
#     domain: a b c
#     relation R/2: (a,b) (b,c)
#     constant c0 = a
#
# Team files name elements per row:
#     vars: x y z
#     0 1 1
# The empty assignment (empty scope) is written as the single row `()`.
# Both formats round-trip bit-exactly through their formatters.
# ---------------------------------------------------------------------------


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_structure(text: str) -> Structure:
    elements = None
    relations: dict[str, tuple[int, list]] = {}
    constants: dict[str, str] = {}
    for lineno, line in _content_lines(text):
        if line.startswith("domain:"):
            if elements is not None:
                raise ParseError("duplicate domain line", lineno, 1)
            elements = line[len("domain:") :].split()
            if not elements:
                raise ParseError("domain must list at least one element", lineno, 1)
        elif line.startswith("relation "):
            if elements is None:
                raise ParseError("relation line before domain line", lineno, 1)
            head, _, rest = line[len("relation ") :].partition(":")
            name, _, arity_text = head.strip().partition("/")
            if not name or not arity_text.isdigit():
                raise ParseError(f"malformed relation header {head.strip()!r}", lineno, 1)
            arity = int(arity_text)
            tuples = []
            for tok in rest.split():
                # "()" is the arity-0 tuple; no other component may be empty.
                parts = tuple(tok[1:-1].split(",")) if tok != "()" else ()
                if not (tok.startswith("(") and tok.endswith(")")) or "" in parts:
                    raise ParseError(f"malformed tuple {tok!r}", lineno, 1)
                tuples.append(parts)
            if name in relations:
                raise ParseError(f"duplicate relation {name!r}", lineno, 1)
            relations[name] = (arity, tuples)
        elif line.startswith("constant "):
            if elements is None:
                raise ParseError("constant line before domain line", lineno, 1)
            name, _, value = line[len("constant ") :].partition("=")
            name, value = name.strip(), value.strip()
            if not name or not value:
                raise ParseError("malformed constant line", lineno, 1)
            if name in constants:
                raise ParseError(f"duplicate constant {name!r}", lineno, 1)
            constants[name] = value
        else:
            raise ParseError(f"unrecognised structure line {line!r}", lineno, 1)
    if elements is None:
        raise ParseError("structure text has no domain line")
    try:
        return Structure(elements, relations, constants)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_structure(structure: Structure) -> str:
    lines = ["domain: " + " ".join(structure.elements)]
    for name in sorted(structure.relations):
        rendered = " ".join(
            "(" + ",".join(structure.elements[i] for i in t) + ")"
            for t in sorted(structure.relations[name])
        )
        suffix = f" {rendered}" if rendered else ""
        lines.append(f"relation {name}/{structure.arities[name]}:{suffix}")
    for name in sorted(structure.constants):
        lines.append(f"constant {name} = {structure.elements[structure.constants[name]]}")
    return "\n".join(lines) + "\n"


def parse_team(text: str, structure: Structure) -> Team:
    scope = None
    rows = []
    for lineno, line in _content_lines(text):
        if scope is None:
            if not line.startswith("vars:"):
                raise ParseError("team text must start with a 'vars:' line", lineno, 1)
            scope = tuple(line[len("vars:") :].split())
            continue
        if line == "()":
            names: tuple[str, ...] = ()
        else:
            names = tuple(line.split())
        if len(names) != len(scope):
            raise ParseError(
                f"row has {len(names)} values but the scope has {len(scope)}", lineno, 1
            )
        try:
            rows.append(tuple(structure.id_of(n) for n in names))
        except ValueError as exc:
            raise ParseError(str(exc), lineno, 1) from exc
    if scope is None:
        raise ParseError("team text has no 'vars:' line")
    try:
        return Team(scope, rows)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_team(team: Team, structure: Structure) -> str:
    head = "vars:" + ("" if not team.scope else " " + " ".join(team.scope))
    lines = [head]
    for r in team.rows:
        lines.append("()" if not r else " ".join(structure.elements[i] for i in r))
    return "\n".join(lines) + "\n"
