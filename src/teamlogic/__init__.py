"""Model checking and inference for dependence and independence logic
under team semantics."""

from .atoms import (
    ClosureResult,
    DerivationTrace,
    EntailmentVerdict,
    TraceStep,
    armstrong_closure,
    armstrong_derives,
    counterexample_armstrong,
    counterexample_independence,
    independence_derives,
    rule_closure,
    semantic_entails,
)
from .branching import (
    BranchingAgreementReport,
    check_branching_equivalence,
    henkin_eval_skolem,
)
from .core import (
    Structure,
    Team,
    duplicate,
    enumerate_teams,
    format_structure,
    format_team,
    parse_structure,
    parse_team,
    splits,
    supplement,
    team_to_relation,
)
from .errors import (
    BudgetExceededError,
    LogicError,
    ParseError,
    ScopeError,
    SearchSpaceError,
)
from .eso import EsoSentence, TranslationCheck, check_translation, eval_eso, format_eso, translate
from .semantics import (
    ValidityResult,
    evaluate,
    satisfies_dep,
    satisfies_ind,
    sentence_sat,
    validity_search,
)
from .syntax import (
    AtomStatement,
    DepAtom,
    DepStatement,
    IndAtom,
    IndStatement,
    desugar_henkin,
    desugar_slash,
    format_atom_statement,
    format_formula,
    free_vars,
    parse_atom_statement,
    parse_atoms_text,
    parse_formula,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
