"""Sparse symmetric Boolean matrix factorization toolkit.

Recovers a random k-row-sparse Boolean matrix W from its Boolean Gram matrix
M = W W^T by bootstrapping the third-order intersection tensor and running a
simultaneous-diagonalization decomposition, plus the downstream
heavy-coordinate dataset-recovery attack, reductions to Max 2-CSP, and a
suite of exact/empirical validation probes.
"""

from .errors import (BudgetExceededError, DegeneracyError, DimensionError,
                     ExtensionError, InconsistencyError, ParameterError,
                     RankDeficiencyError, RoundingError, SsbmfError)
from .instance import (GramMatrix, SelectionMatrix, factorization_error,
                       gen_selection_matrix, gram, split_seed)
from .jennrich import (RecoverConfig, RecoveredFactors, extend_from_anchors,
                       jennrich_decompose, match_columns, round_boolean,
                       tensor_recover)
from .mu import MuTable, mu_table, required_sample_size, zero_cooccurrence
from .recover import (Dataset, SyntheticDataset, expected_square_inner,
                      gen_instahide, get_heavy_coordinates, recover_dataset)
from .tensor import IntersectionTensor, build_tensor, contract, oracle_tensor

__version__ = "0.1.0"
