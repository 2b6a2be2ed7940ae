"""Cut-free sequent calculi for star-continuous action lattices: a
wellfounded system with an infinitary left star rule, a cyclic system with a
global progress condition, translations between them, and finite algebraic
semantics (action lattices, residuated frames, dual algebras, completions)
for auditing soundness and quasiequation transfer."""

from .syntax import (
    Formula,
    Join,
    LRes,
    Meet,
    One,
    Prod,
    RRes,
    Sequent,
    Star,
    Var,
    Zero,
    parse_formula,
    parse_sequent,
    power_formula,
    power_seq,
    print_formula,
    print_sequent,
)
from .rules import (
    FVar,
    Instantiation,
    MetaSequent,
    Quasiequation,
    RuleSet,
    SchematicRule,
    SVar,
    ancestry,
    builtin_rules,
    classify,
    example_structural_rules,
    instantiate,
    match_conclusion,
    parse_rule_file,
    q_a_of,
    q_of,
    qe_to_equation,
    t_term,
)
from .proof_core import (
    CyclicNode,
    CyclicProof,
    OmegaFamily,
    Ordinal,
    RuleApp,
    WfProof,
    check_cyclic_local,
    check_local,
    check_wf,
    dotL_invert,
    height,
    id_expand,
    load_proof,
    oneL_invert,
    save_proof,
    tau_n,
    to_standard_omega,
    zeroR_admit,
)
from .progress import (
    Thread,
    check_cyclic_progress,
    critical_height,
    progress_points,
    star_thread,
)
from .translate import (
    LazyPreproof,
    check_lazy_prefix,
    evolve_assignment,
    nwf_to_wf,
    om,
    path,
    project_proof,
    project_sequent,
    project_single,
    wf_to_nwf,
)
from .models import (
    FiniteActionLattice,
    eval_formula,
    holds_quasieq,
    holds_sequent,
    library,
    rel_algebra,
    soundness_audit,
    three_chain,
    truncated_words,
    two_chain,
    validate_algebra,
)
from .frames import (
    DualAlgebra,
    GentzenFrame,
    ResiduatedFrame,
    check_gentzen,
    check_nuclear,
    check_star_gentzen,
    dual_algebra,
    embedding_check,
    frame_of_algebra,
    frame_satisfies_q,
    macneille,
    quasimorphism_check,
    verify_transfer,
)
from .search import SearchConfig, prove, refute

__version__ = "0.1.0"
