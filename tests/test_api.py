import inspect

import ssbmf

# Every public name of the package.  A change to the public API shows up
# as a change to this list.
PUBLIC_NAMES = [
    "BudgetExceededError", "Dataset", "DegeneracyError", "DimensionError",
    "ExtensionError", "GramMatrix", "InconsistencyError", "IntersectionTensor",
    "MuTable", "ParameterError", "RankDeficiencyError", "RecoverConfig",
    "RecoveredFactors", "RoundingError", "SelectionMatrix", "SsbmfError",
    "SyntheticDataset", "build_tensor", "contract", "expected_square_inner",
    "extend_from_anchors", "factorization_error", "gen_instahide",
    "gen_selection_matrix", "get_heavy_coordinates", "gram", "jennrich_decompose",
    "match_columns", "mu_table", "oracle_tensor", "recover_dataset",
    "required_sample_size", "round_boolean", "split_seed", "tensor_recover",
    "zero_cooccurrence",
]


def test_public_names_are_pinned():
    # Submodules (ssbmf.csp, ssbmf.cli, ...) become attributes as they are
    # imported, so they are left out.
    names = sorted(name for name, value in vars(ssbmf).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert names == PUBLIC_NAMES
