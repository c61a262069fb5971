"""The package's public names."""

import bnras


def test_all_names_resolve_once():
    assert len(bnras.__all__) == len(set(bnras.__all__))
    assert [name for name in bnras.__all__ if not hasattr(bnras, name)] == []
    namespace = {}
    exec("from bnras import *", namespace)
    assert set(bnras.__all__) <= set(namespace)


# The public names kept since the first deletion round (CHANGES.md, the
# d079b8e entry): all of ``__all__``. A deletion may remove private code
# only; a change to this list is a change to the interface.
KEPT = {
    "BeliefNetwork", "BnrasError", "BoundsReport", "CapacityError", "ChainState",
    "Checkpoint", "Cpt", "CycleError", "DEFAULT_ENUM_CAP", "DEFAULT_MATRIX_CAP",
    "DeterministicConflictError", "Diagnostic", "ErrorReport", "ErrorTolerances",
    "Evidence", "ImpossibleEvidenceError", "MixingOverflowError", "MixingReport",
    "NetworkDocument", "NetworkFormatError", "NetworkValidationError", "Node",
    "PositivityError", "PosteriorEstimate", "PosteriorTable", "RandomStream",
    "TransitionMatrix", "ValidationReport", "bnras_estimate", "bnras_estimates",
    "build_transition_matrix", "builtin_networks", "check_evidence", "check_state",
    "conditional_probability", "derive_stream_seed", "do_transition",
    "enumerate_posteriors", "error_metrics", "factored_lower_bounds", "format_evidence",
    "free_nodes", "full_conditional", "init_random_state", "joint_probability",
    "markov_blanket", "min_joint_posterior", "min_transition_probability", "mixing_bound",
    "mixing_report", "next_trial", "normalize_rows", "parse_document", "parse_evidence",
    "parse_network", "relative_pointwise_distance", "report_bounds", "serialize_network",
    "straight_estimate", "straight_estimates", "straight_step", "topological_order",
    "transitions_per_trial", "trials_bound", "validate_network",
}


def test_public_names_kept():
    assert set(bnras.__all__) == KEPT
