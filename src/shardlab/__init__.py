"""shardlab: a finite-field laboratory for coded blockchain sharding.

Exact prime-field arithmetic underneath, Lagrange-coded block verification on
top, plus the machinery to mount version-discrepancy attacks and to check
linear decodability of honest outputs by exact rank analysis.
"""

from .field_poly import (
    DEFAULT_MODULUS,
    DuplicateAbscissa,
    FieldElement,
    Polynomial,
    PrimeField,
    ResidueVector,
    lagrange_interpolate,
)
from .lcc import (
    DegreeOverflow,
    EncodingParams,
    all_version_tuples,
    build_coded_poly,
    compose_verification,
    encode_at_node,
)
from .decoder import (
    BroadcastEntry,
    BroadcastSet,
    DecodeOutcome,
    InsufficientEvaluations,
    accept_bits,
    known_behavior_decode,
    recover_outputs,
    rs_decode,
)
from .adversary import (
    AdversaryConfig,
    InfeasiblePartition,
    VersionAssignment,
    assign_versions,
    corrupt_results,
    forge_versions,
)
from .polyshard_sim import (
    CommLoad,
    EpochReport,
    ShardChain,
    Simulation,
    VerificationFn,
    comm_load,
    history_power_check,
    power_check,
    propose_blocks,
    run_epoch,
)
from .threshold_analysis import (
    AnalysisParams,
    RankReport,
    SweepRow,
    SystemMatrices,
    build_system,
    c_row_count,
    empirical_threshold,
    free_variable_count,
    free_variable_count_closed_form,
    known_behavior_upper_bound,
    proof_params,
    recovery_probability,
    recovery_threshold,
    sweep_to_csv,
    unique_decodability,
)

__version__ = "0.1.0"
