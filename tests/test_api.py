import inspect
import re
from pathlib import Path

import ssbmf

# Every public name of the package.  A change to the public API shows up
# as a change to this list.
PUBLIC_NAMES = [
    "BudgetExceededError", "Dataset", "DegeneracyError", "ExtensionError",
    "GramMatrix", "InconsistencyError", "IntersectionTensor", "MuTable",
    "ParameterError", "RankDeficiencyError", "RecoverConfig",
    "RecoveredFactors", "RoundingError", "SelectionMatrix", "SsbmfError",
    "SyntheticDataset", "build_tensor", "contract", "expected_square_inner",
    "extend_from_anchors", "factorization_error", "gen_instahide",
    "gen_selection_matrix", "get_heavy_coordinates", "gram", "jennrich_decompose",
    "match_columns", "mu_table", "oracle_tensor", "recover_dataset",
    "required_sample_size", "round_boolean", "split_seed", "tensor_recover",
]


def test_public_names_are_pinned():
    # Submodules (ssbmf.csp, ssbmf.cli, ...) become attributes as they are
    # imported, so they are left out.
    names = sorted(name for name, value in vars(ssbmf).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert names == PUBLIC_NAMES


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
