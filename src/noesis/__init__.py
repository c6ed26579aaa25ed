"""Prerequisite-gated learning: minds, reachable states, teaching, and audits.

The package models a learner as a finite concept space with axiom
concepts and expansion rules, derives the lattice of reachable knowledge
states, simulates sequential teaching through a prerequisite-gated
parser with an exact Bayesian learner, verifies the information laws the
dynamics obey, and computes fixed-horizon value bounds, allocation
plans, and broadcast penalties.  All core objects are immutable and the
operations are pure functions, so everything is safe to share across
threads.
"""

from .audit import (
    AuditReport,
    HistoryNode,
    HistoryTree,
    LawVerdict,
    audit_all,
    audit_history,
    build_history_tree,
    round_mutual_info,
    round_mutual_info_from_joint,
)
from .derivation import (
    Curriculum,
    DerivationTree,
    curriculum_from_derivation,
    derive,
    validate_curriculum,
    verify_derivation,
)
from .errors import (
    CapExceededError,
    ClosureAxiomError,
    FormatError,
    InformationLawError,
    InvalidMindError,
    MissingSignalError,
    NoesisError,
    NotLearningSpaceError,
    ScenarioError,
    StrategyError,
    UnknownConceptError,
    UnreachableConceptError,
    ZeroProbabilityError,
)
from .fileio import (
    LoadedScenario,
    load_mind,
    load_scenario,
    load_scenario_bundle,
    read_trace,
    scenario_digest,
    trace_to_csv,
    write_trace,
)
from .information import entropy_bits, mutual_information_bits
from .mind import (
    ConceptSpace,
    ExpansionRule,
    Mind,
    ValidationReport,
    closure,
    closure_iterates,
    is_ordered,
    one_step_expansion,
    rules_from_closure,
    understanding_horizon,
    validate_mind,
)
from .planner import (
    AllocationPlan,
    BroadcastInstance,
    ValueEnvelope,
    allocate,
    broadcast_check,
    broadcast_construct,
    broadcast_min_length,
    deterministic_value,
    exact_value_tiny,
    value_envelope,
    value_lower,
    value_upper,
)
from .reachability import (
    LearningSpaceReport,
    ReachableFamily,
    canonical_rules,
    check_learning_space,
    enumerate_reachable,
    shortest_chain,
    structural_distance,
)
from .signals import (
    ExperimentMatrix,
    ParsedSignal,
    SignalSystem,
    capacity,
    check_blackwell,
    experiment_matrix,
    garbling_map,
    max_capacity,
    ordered_signals,
    parse,
)
from .teaching import (
    EpisodeTrace,
    PointKernel,
    Round,
    Scenario,
    StrategyKernel,
    StrategySpec,
    broadcast_strategy,
    direct_strategy,
    knowledge_update,
    posterior_after,
    run_episode,
    scripted_strategy,
    state_after,
)

__version__ = "0.1.0"
