"""Team-semantics evaluation, sentence satisfaction, and validity search.

The evaluator is compositional: first-order atoms hold when every row
satisfies them pointwise, a negated dependency atom holds on the empty
team alone, conjunction shares the team, disjunction searches covers of
the team (disjoint covers under strict semantics), the existential
quantifier searches choice functions (singleton choices under strict
semantics) and the universal quantifier extends every row with every
domain element.

Each node is classified once as flat (first-order, decided row by row),
as 2-coherent (it holds on a team iff on each subteam of at most two
rows) and as closed: it holds on every subteam of a team it holds on.
Each class is read from the parts' entries in a shared table, so the
classes cost one walk of the formula.  An atom is compiled once per team
scope into a check over the rows (``_row_check``, the kernel
``atoms.semantic_entails`` runs too).  An ind atom that says a dep atom
(``IndAtom.as_dep``) compiles to that atom's check, and nodes whose ind
atoms all do so are closed.  So is
``exists v. (ind(v ; C ; O) and phi)``, phi first-order, when every free
variable of the node lies in C and O: rows that agree on C and O then
allow the same values of v, and the atom says what ``dep(C ; v)`` says.
A disjunction first tries the extreme covers.  Two 2-coherent disjuncts,
neither flat, are then decided as 2-SAT over the rows; otherwise it
searches left subteams as row bitmasks, each evaluated once, with the
right disjunct on the complement; under lax semantics, when neither
disjunct is closed, also on every proper superset of it.  Next to a flat
disjunct the other takes every row the flat one misses, and if closed
just those.  The search budget is spent once per probed cover or subteam.

Existential search is per-row with pruning: first-order conjuncts
restrict each row's candidate values up front, computed once per
distinct row and quantifier node, and the common shape "one independence
atom headed by the new variable plus pointwise conjuncts" is decided
class by class without enumerating choice functions, under lax semantics
and, where the node is closed, under strict.  Everything else falls back
to a budgeted search over choice functions: singletons under strict
semantics or below a closed residual, else value sets by size, the full
extension last.  The memo drops the verdicts of each failed choice.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .core import (
    Structure,
    Team,
    VarTuple,
    check_mode,
    duplicate,
    extend_scope,
    subsets,
)
from .errors import BudgetExceededError, LogicError, ScopeError, SearchSpaceError
from .syntax import (
    And,
    Const,
    DepAtom,
    Eq,
    Exists,
    Forall,
    Formula,
    Henkin,
    IndAtom,
    Not,
    Or,
    Rel,
    SlashedExists,
    Var,
    contains_sugar,
    flatten,
    free_vars,
    subformulas,
)

DEFAULT_SEARCH_BUDGET = 10**7
DEFAULT_MAX_STRUCTURES = 2**20


def satisfies_dep(team: Team, determiner, determined) -> bool:
    """Do the determiner values fix the determined values on this team?"""
    pos_d = team.positions(determiner)
    pos_x = team.positions(determined)
    seen: dict = {}
    for r in team.rows:
        key = tuple(r[i] for i in pos_d)
        val = tuple(r[i] for i in pos_x)
        if seen.setdefault(key, val) != val:
            return False
    return True


def satisfies_ind(team: Team, left, condition, right) -> bool:
    """Within each condition class, left and right patterns combine freely."""
    pos_c = team.positions(condition)
    pos_l = team.positions(left)
    pos_r = team.positions(right)
    groups: dict = {}
    for r in team.rows:
        key = tuple(r[i] for i in pos_c)
        lv = tuple(r[i] for i in pos_l)
        rv = tuple(r[i] for i in pos_r)
        ls, rs, pairs = groups.setdefault(key, (set(), set(), set()))
        ls.add(lv)
        rs.add(rv)
        pairs.add((lv, rv))
    for ls, rs, pairs in groups.values():
        if len(pairs) != len(ls) * len(rs):
            return False
    return True


def _row_check(scope: VarTuple, atom: DepAtom | IndAtom):
    """The atom compiled into a check over distinct rows of the scope, in any
    order: the verdict of ``satisfies_dep``/``satisfies_ind`` on a ``Team``
    of those rows, with the key positions resolved once instead of per team.
    The evaluator and ``atoms.semantic_entails`` run it; the plain functions
    above stay the independent reference that countermodels and tests are
    checked against."""

    def key(variables):
        positions = [scope.index(v) for v in variables]
        return operator.itemgetter(*positions) if positions else lambda row: ()

    if isinstance(atom, DepAtom):
        det, val = key(atom.determiner), key(atom.determined)

        def holds(rows) -> bool:
            seen: dict = {}
            for r in rows:
                v = val(r)
                if seen.setdefault(det(r), v) != v:
                    return False
            return True

        return holds
    cond, left, right = key(atom.condition), key(atom.left), key(atom.right)

    def holds(rows) -> bool:
        groups: dict = {}
        for r in rows:
            lv, rv = left(r), right(r)
            ls, rs, pairs = groups.setdefault(cond(r), (set(), set(), set()))
            ls.add(lv)
            rs.add(rv)
            pairs.add((lv, rv))
        for ls, rs, pairs in groups.values():
            if len(pairs) != len(ls) * len(rs):
                return False
        return True

    return holds


def _submasks(mask: int):
    """Every submask of the mask in increasing order, 0 and the mask included."""
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


def _atom_terms(f: Formula):
    """(atom, terms) for each equality and relation atom, in pre-order."""
    for node in subformulas(f):
        if isinstance(node, Rel):
            yield node, node.args
        elif isinstance(node, Eq):
            yield node, (node.left, node.right)


def check_vocabulary(structure: Structure, f: Formula) -> None:
    """Reject unknown relations/constants and arity mismatches up front."""
    for node, terms in _atom_terms(f):
        if isinstance(node, Rel):
            if node.name not in structure.relations:
                raise LogicError(f"unknown relation {node.name!r}")
            if structure.arities[node.name] != len(node.args):
                raise LogicError(
                    f"relation {node.name!r} used with arity {len(node.args)}, "
                    f"declared {structure.arities[node.name]}"
                )
        for t in terms:
            if isinstance(t, Const) and t.name not in structure.constants:
                raise LogicError(f"unknown constant {t.name!r}")


class _Evaluator:
    def __init__(self, structure: Structure, mode: str, budget: int, classes: dict | None = None):
        if budget < 0:
            raise LogicError("the search budget is negative")
        self.structure = structure
        self.mode = mode
        self.remaining = budget
        self.memo: dict = {}
        self.plans: dict = {}  # by (node id, team scope): atom checks, `exists` plans
        # Flatness by node id; closedness, 2-coherence, the dep atom an ind
        # atom says, `exists` shapes and whether a quantifier's body uses its
        # variable by (node id, tag).  All depend on the formula alone, so
        # evaluators of one formula may share the table.
        self.classes: dict = {} if classes is None else classes

    def spend(self, n: int = 1):
        self.remaining -= n
        if self.remaining < 0:
            raise BudgetExceededError("search exhausted: candidate budget used up")

    # -- pointwise atoms ----------------------------------------------------

    def _flat(self, f: Formula) -> bool:
        """Does the formula hold on a team iff on each of its rows?  It does
        when first-order: no dep or ind atom, no slashed or branching
        quantifier.  Read from the parts, each classed once."""
        flat = self.classes.get(id(f))
        if flat is None:
            flat = not isinstance(f, (DepAtom, IndAtom, SlashedExists, Henkin))
            for field in f.parts:
                flat = flat and self._flat(getattr(f, field))
            self.classes[id(f)] = flat
        return flat

    def _dep_of(self, f: IndAtom):
        """The dep atom the ind atom says (`IndAtom.as_dep`), or None."""
        key = (id(f), "dep")
        if key not in self.classes:
            self.classes[key] = f.as_dep()
        return self.classes[key]

    def _closed(self, f: Formula) -> bool:
        """Does the formula hold on every subteam of a team it holds on?
        2-coherent formulas do, and the connectives and quantifiers keep it;
        an ind atom that says no dep atom does not, though an `exists` over
        one may (see `_exists_shape`)."""
        key = (id(f), "closed")
        closed = self.classes.get(key)
        if closed is None:
            if self._coherent(f):
                closed = True
            elif isinstance(f, (And, Or)):
                closed = self._closed(f.left) and self._closed(f.right)
            elif isinstance(f, Forall):
                closed = self._closed(f.body)
            elif isinstance(f, Exists):
                closed = self._exists_shape(f)[3]
            else:
                closed = False
            self.classes[key] = closed
        return closed

    def _coherent(self, f: Formula) -> bool:
        """Does the formula hold on a team iff on each subteam of at most two
        rows (Kontinen 2013)?  Flat formulas, negated atoms (which hold on
        the empty team alone), dep atoms and dep-shaped ind atoms do, `and`
        and `forall` keep it, and so does an `or` with a flat side, since the
        other side must take just the rows the flat one misses."""
        key = (id(f), "coherent")
        coherent = self.classes.get(key)
        if coherent is None:
            if self._flat(f) or isinstance(f, (DepAtom, Not)):
                coherent = True
            elif isinstance(f, IndAtom):
                coherent = self._dep_of(f) is not None
            elif isinstance(f, And):
                coherent = self._coherent(f.left) and self._coherent(f.right)
            elif isinstance(f, Forall):
                coherent = self._coherent(f.body)
            elif isinstance(f, Or):
                coherent = (self._flat(f.left) and self._coherent(f.right)) or (
                    self._flat(f.right) and self._coherent(f.left)
                )
            else:
                coherent = False
            self.classes[key] = coherent
        return coherent

    def _term_value(self, t, scope: VarTuple, row) -> int:
        if isinstance(t, Var):
            return row[scope.index(t.name)]
        return self.structure.constants[t.name]

    def _row_satisfies(self, f: Formula, scope: VarTuple, row) -> bool:
        """Pointwise satisfaction of a flat (dependency-atom-free) formula."""
        if isinstance(f, Eq):
            return self._term_value(f.left, scope, row) == self._term_value(
                f.right, scope, row
            )
        if isinstance(f, Rel):
            vals = tuple(self._term_value(a, scope, row) for a in f.args)
            return vals in self.structure.relations[f.name]
        if isinstance(f, Not):
            return not self._row_satisfies(f.atom, scope, row)
        if isinstance(f, And):
            return self._row_satisfies(f.left, scope, row) and self._row_satisfies(
                f.right, scope, row
            )
        if isinstance(f, Or):
            return self._row_satisfies(f.left, scope, row) or self._row_satisfies(
                f.right, scope, row
            )
        if isinstance(f, (Exists, Forall)):
            scope2, pos = extend_scope(scope, f.var)
            want = isinstance(f, Exists)
            used = self.classes.get((id(f), "used"))
            if used is None:
                used = self.classes[(id(f), "used")] = f.var in free_vars(f.body)
            # A body that ignores the bound value is decided once.
            for a in self.structure.domain_ids()[: None if used else 1]:
                extended = row[:pos] + (a,) + row[pos + 1 :]
                if self._row_satisfies(f.body, scope2, extended) == want:
                    return want
            return not want
        raise TypeError(f"not a flat formula: {f!r}")

    # -- main recursion ------------------------------------------------------

    def eval(self, team: Team, f: Formula) -> bool:
        if not team.rows:
            return True  # the empty team satisfies every formula
        key = (id(f), team.scope, team.rows)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        value = self._eval(team, f)
        self.memo[key] = value
        return value

    def _eval(self, team: Team, f: Formula) -> bool:
        if self._flat(f):
            scope = team.scope
            return all(self._row_satisfies(f, scope, r) for r in team.rows)
        if isinstance(f, Not):
            return not team.rows  # negated dep/ind atom: empty team alone
        if isinstance(f, (DepAtom, IndAtom)):
            key = (id(f), team.scope)
            check = self.plans.get(key)
            if check is None:
                dep = self._dep_of(f) if isinstance(f, IndAtom) else f
                check = self.plans[key] = _row_check(team.scope, f if dep is None else dep)
            return check(team.rows)
        if isinstance(f, And):
            return self.eval(team, f.left) and self.eval(team, f.right)
        if isinstance(f, Or):
            return self._eval_or(team, f)
        if isinstance(f, Forall):
            return self.eval(duplicate(team, f.var, self.structure), f.body)
        if isinstance(f, Exists):
            return self._eval_exists(team, f)
        raise TypeError(f"not a formula: {f!r}")

    # -- disjunction ---------------------------------------------------------

    def _eval_or(self, team: Team, f: Formula) -> bool:
        # The extreme covers (team, empty) and (empty, team) come first and
        # subsume the overlap-maximal lax cover (team, team).
        if self.eval(team, f.left) or self.eval(team, f.right):
            return True
        lflat, rflat = self._flat(f.left), self._flat(f.right)
        if not (lflat or rflat) and self._coherent(f.left) and self._coherent(f.right):
            return self._or_by_pairs(team, f)
        # Bit i of a mask stands for row i.  Each left side y = base | s, for
        # s a submask of free, is tried once; the right side is the
        # complement of y, or under lax semantics any proper superset of it.
        # A lax cover (Y, Z) with a closed side shrinks to the disjoint
        # (Y, T - Y) or (T - Z, Z).
        rows, scope = team.rows, team.scope
        full = (1 << len(rows)) - 1
        lclosed, rclosed = self._closed(f.left), self._closed(f.right)
        lax = self.mode == "lax" and not (lclosed or rclosed)
        base, free = 0, full
        if lflat or rflat:
            # A flat side holds on just the subteams of its rows p, so the
            # other side takes every other row, and if closed only those.
            flat = f.left if lflat else f.right
            p = sum(1 << i for i, r in enumerate(rows) if self._row_satisfies(flat, scope, r))
            if lflat:
                base, free = (p, 0) if rclosed else (0, p)
            else:
                base, free = full ^ p, 0 if lclosed else p

        def subteam(mask: int) -> Team:
            return Team(scope, [r for i, r in enumerate(rows) if mask >> i & 1])

        for s in _submasks(free):
            y = base | s
            if not 0 < y < full:
                continue
            self.spend()
            if not self.eval(subteam(y), f.left):
                continue
            comp = full ^ y
            for t in _submasks(y) if lax else (0,):
                if t == y:
                    break
                if t:
                    self.spend()
                if self.eval(subteam(comp | t), f.right):
                    return True
        return False

    def _or_by_pairs(self, team: Team, f: Or) -> bool:
        """2-SAT over the rows.  Both 2-coherent sides are closed, so a
        disjoint cover suffices in both modes, and it works iff each side
        holds on each of its rows and row pairs: colour a row True to put it
        on the left, and no row or pair may take the colour of a side it fails."""
        rows, scope, n = team.rows, team.scope, len(team.rows)

        def holds(colour: bool, *idx: int) -> bool:
            self.spend()
            return self.eval(Team(scope, [rows[i] for i in idx]), f.left if colour else f.right)

        alone = {c: [holds(c, i) for i in range(n)] for c in (True, False)}
        if not all(left or right for left, right in zip(alone[True], alone[False])):
            return False
        # clash[c][i]: the rows that may not share colour c with row i; a row
        # that fails side c alone clashes with itself.
        clash = {c: [[] if ok else [i] for i, ok in enumerate(alone[c])] for c in alone}
        for i, j in itertools.combinations(range(n), 2):
            for c in alone:
                if alone[c][i] and alone[c][j] and not holds(c, i, j):
                    clash[c][i].append(j)
                    clash[c][j].append(i)

        def paint(i: int, c: bool, colour: dict):
            """The colouring plus row i in colour c and all it forces, or None."""
            colour, todo = dict(colour), [(i, c)]
            while todo:
                i, c = todo.pop()
                if i not in colour:
                    colour[i] = c
                    todo.extend((j, not c) for j in clash[c][i])
                elif colour[i] != c:
                    return None
            return colour

        # Each uncoloured row tries one colour and, if what that forces
        # clashes, the other (Even, Itai and Shamir 1976).
        colour: dict | None = {}
        for i in range(n):
            if i not in colour:
                colour = paint(i, True, colour) or paint(i, False, colour)
                if colour is None:
                    return False
        return True

    # -- existential quantifier ------------------------------------------------

    def _exists_shape(self, f: Exists):
        """(flats, residual, fast atom, closed) of the node: its first-order
        conjuncts, the others, and their ind atom if that is all they are."""
        key = (id(f), "shape")
        shape = self.classes.get(key)
        if shape is None:
            parts = flatten(f.body, And)
            flats = [c for c in parts if self._flat(c)]
            residual = tuple(c for c in parts if not self._flat(c))
            fast_atom = None
            if len(residual) == 1 and isinstance(residual[0], IndAtom):
                fast_atom = self._normalize_fast_atom(residual[0], f.var)
            if fast_atom is None:
                # The residual's conjuncts are nodes of the formula; no node
                # is built for their conjunction, so none is looked up by id.
                closed = all(self._closed(c) for c in residual)
            else:
                # When the atom names every free variable of the node, rows
                # that agree on it allow the same values of var, so the atom
                # says what dep(condition ; var) says: singletons suffice.
                condition, other = fast_atom
                closed = set(free_vars(f)) <= set(condition + other)
            shape = self.classes[key] = (flats, residual, fast_atom, closed)
        return shape

    @staticmethod
    def _normalize_fast_atom(atom: IndAtom, var: str):
        """Orient the atom so the quantified variable is alone on the left.

        The independence condition is symmetric in its outer tuples, so
        an atom headed by the new variable on either side qualifies.
        Returns (condition, other) position-free tuples or None.
        """
        left, cond, right = set(atom.left), set(atom.condition), set(atom.right)
        if var in cond:
            return None
        if left == {var} and var not in right:
            return (atom.condition, atom.right)
        if right == {var} and var not in left:
            return (atom.condition, atom.left)
        return None

    def _eval_exists(self, team: Team, f: Exists) -> bool:
        # The extended scope, the new column and the allowed values by row
        # belong to the team scope, the rest to the node.
        key = (id(f), team.scope)
        plan = self.plans.get(key)
        if plan is None:
            plan = self.plans[key] = (*extend_scope(team.scope, f.var), {}, *self._exists_shape(f))
        scope2, pos, allowed_of, flats, residual, fast_atom, closed = plan
        domain = tuple(self.structure.domain_ids())

        def extended(row, a):
            return row[:pos] + (a,) + row[pos + 1 :]

        allowed = []
        for r in team.rows:
            vals = allowed_of.get(r)
            if vals is None:
                vals = allowed_of[r] = tuple(
                    a
                    for a in domain
                    if all(self._row_satisfies(fl, scope2, extended(r, a)) for fl in flats)
                )
            if not vals:
                return False
            allowed.append(vals)

        if not residual:
            return True  # pointwise conjuncts only: any choice works

        # Under lax semantics the class-by-class decision is exact; where the
        # node is closed, singleton choices are as good as value sets, so it
        # is exact under strict semantics too.
        if fast_atom is not None and (self.mode == "lax" or closed):
            return self._exists_ind_classes(team, allowed, fast_atom)

        return self._exists_dfs(team, scope2, extended, allowed, residual, closed)

    def _exists_ind_classes(self, team: Team, allowed, fast_atom) -> bool:
        """Class-by-class decision for a single independence conjunct.

        Within one condition class the extension must realize the full
        product of new-variable values and other-side patterns, so the
        largest feasible value set per class is the intersection of the
        per-pattern candidate unions; the class succeeds exactly when
        every row still meets that set.
        """
        condition, other = fast_atom
        pos_c = team.positions(condition)
        pos_o = team.positions(other)
        classes: dict = {}
        for idx, r in enumerate(team.rows):
            key = tuple(r[i] for i in pos_c)
            classes.setdefault(key, []).append(idx)
        for members in classes.values():
            unions: dict = {}
            for idx in members:
                rho = tuple(team.rows[idx][i] for i in pos_o)
                unions.setdefault(rho, set()).update(allowed[idx])
            feasible = set.intersection(*unions.values())
            if not feasible:
                return False
            for idx in members:
                if feasible.isdisjoint(allowed[idx]):
                    return False
        return True

    def _exists_dfs(self, team: Team, scope2, extended, allowed, residual, closed) -> bool:
        # Below a closed residual, every singleton refinement of a working
        # value-set choice works too.
        if self.mode == "strict" or closed:
            options = [tuple((a,) for a in vals) for vals in allowed]
        else:
            options = [tuple(subsets(vals))[1:] for vals in allowed]  # non-empty
        mark = len(self.memo)  # verdicts past the mark go with a failed choice
        for combo in itertools.product(*options):
            self.spend()
            ext = Team(scope2, [extended(r, a) for r, vals in zip(team.rows, combo) for a in vals])
            if all(self.eval(ext, c) for c in residual):
                return True
            while len(self.memo) > mark:
                self.memo.popitem()
        return False


def evaluate(
    structure: Structure,
    team: Team,
    f: Formula,
    mode: str = "lax",
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> bool:
    """Does the team satisfy the formula in the structure?"""
    check_mode(mode)
    if contains_sugar(f):
        raise LogicError("slashed and branching quantifiers must be rewritten first")
    missing = [v for v in free_vars(f) if v not in team.scope]
    if missing:
        raise ScopeError(f"free variable {missing[0]!r} is not in the team scope {team.scope}")
    check_vocabulary(structure, f)
    return _Evaluator(structure, mode, budget).eval(team, f)


def sentence_sat(
    structure: Structure,
    sentence: Formula,
    mode: str = "lax",
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> bool:
    """Satisfaction of a sentence: evaluation on the single-empty-assignment team."""
    names = free_vars(sentence)
    if names:
        raise LogicError(f"not a sentence: free variables {', '.join(names)}")
    return evaluate(structure, Team.initial(), sentence, mode=mode, budget=budget)


@dataclass(frozen=True)
class ValidityResult:
    """Outcome of a bounded validity check."""

    max_size: int
    mode: str
    countermodel: Structure | None

    @property
    def valid_up_to_bound(self) -> bool:
        return self.countermodel is None


def _relation_signature(f: Formula) -> dict[str, int]:
    """Relation arities of a sentence that uses no constants."""
    sig: dict[str, int] = {}
    clashes = []
    for node, terms in _atom_terms(f):
        if any(isinstance(t, Const) for t in terms):
            raise LogicError("validity search supports equality-and-relation vocabularies only")
        if isinstance(node, Rel) and sig.setdefault(node.name, len(node.args)) != len(node.args):
            clashes.append(node.name)
    if clashes:
        raise LogicError(f"relation {clashes[0]!r} used with two arities")
    return sig


def _structures_of_size(size: int, signature: dict[str, int]):
    names = [str(i) for i in range(size)]
    rel_names = sorted(signature)
    tables = [
        subsets(sorted(itertools.product(range(size), repeat=signature[n])))
        for n in rel_names
    ]
    for combo in itertools.product(*tables):
        relations = {
            name: (signature[name], table) for name, table in zip(rel_names, combo)
        }
        yield Structure(names, relations)


def validity_search(
    sentence: Formula,
    max_size: int,
    mode: str = "lax",
    max_structures: int = DEFAULT_MAX_STRUCTURES,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> ValidityResult:
    """Check a sentence on every structure with domain size up to the bound.

    The vocabulary may contain equality and relation symbols; pure-equality
    sentences need one structure per size.  Returns the first countermodel
    in enumeration order, or a bound certificate.
    """
    check_mode(mode)
    if max_structures < 0:
        raise LogicError("the structure bound is negative")
    if max_size < 1:
        raise LogicError("vacuous search: the domain size bound is below 1")
    if free_vars(sentence):
        raise LogicError("validity search expects a sentence")
    signature = _relation_signature(sentence)
    if contains_sugar(sentence):
        raise LogicError("slashed and branching quantifiers must be rewritten first")

    # Count up to the cap only, never building a power past its bit length.
    total = 0
    for size in range(1, max_size + 1):
        cells = sum(size**arity for arity in signature.values())
        total += 2 ** min(cells, max_structures.bit_length() + 1)
        if total > max_structures:
            raise SearchSpaceError(
                f"validity search exceeds the cap of {max_structures} structures"
            )

    # The sentence is checked once above.  Each structure is built from its
    # signature with no constants, so the vocabulary check cannot fail.  The
    # structures share one class table: an evaluator builds no formula nodes,
    # so every id in it belongs to the sentence, which outlives the search.
    classes: dict = {}
    for size in range(1, max_size + 1):
        for structure in _structures_of_size(size, signature):
            if not _Evaluator(structure, mode, budget, classes).eval(Team.initial(), sentence):
                return ValidityResult(max_size, mode, structure)
    return ValidityResult(max_size, mode, None)
