"""Universal N -> M qudit cloning machines, verified against brute-force oracles.

The package implements the optimal universal cloner in three equivalent
forms (projector, amplitude, entangled-pair), the asymmetric entangled-pair
cloner (Cerf's optimal machine at 1 -> 2), and closed-form expressions for
every arbitrary-copy fidelity F_L, all cross-checked against literal
full-tensor-space constructions.
"""

from .combinatorics import (
    IdentityReport,
    sym_dim,
    verify_identity_family,
)
from .hilbert import (
    FAST_PATH_CAP,
    ORACLE_CAP,
    FullDensity,
    FastPathCapError,
    OracleCapError,
    PureState,
    fidelity_pure,
    maximally_entangled,
    partial_trace,
    permute_factors,
    random_pure_state,
    random_unitary,
)
from .symmetric import (
    SymDensity,
    expand_power,
    occupation_counts,
    split_index,
    sym_to_full_density,
    sym_unitary,
)
from .machines import (
    MACHINES,
    AsymmetryWeights,
    CloneSpec,
    WeightedCloneResult,
    fan_output,
    run_machine,
    unified_output,
    unified_output_oracle,
    weighted_clone,
    werner_output,
    werner_output_oracle,
)
from .fidelity import (
    fidelities_closed,
    fidelities_numeric,
    fidelity_L_closed_N1,
    fidelity_global_closed,
    fidelity_single_closed,
)

__version__ = "0.1.0"

__all__ = [
    "FAST_PATH_CAP",
    "ORACLE_CAP",
    "MACHINES",
    "AsymmetryWeights",
    "CloneSpec",
    "FastPathCapError",
    "FullDensity",
    "IdentityReport",
    "OracleCapError",
    "PureState",
    "SymDensity",
    "WeightedCloneResult",
    "expand_power",
    "fan_output",
    "fidelities_closed",
    "fidelities_numeric",
    "fidelity_L_closed_N1",
    "fidelity_global_closed",
    "fidelity_pure",
    "fidelity_single_closed",
    "maximally_entangled",
    "occupation_counts",
    "partial_trace",
    "permute_factors",
    "random_pure_state",
    "random_unitary",
    "run_machine",
    "split_index",
    "sym_dim",
    "sym_to_full_density",
    "sym_unitary",
    "unified_output",
    "unified_output_oracle",
    "verify_identity_family",
    "weighted_clone",
    "werner_output",
    "werner_output_oracle",
    "__version__",
]
