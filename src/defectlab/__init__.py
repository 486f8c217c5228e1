"""Exact-arithmetic laboratory for mixed vector systems and their defects."""

__version__ = "0.1.0"

from .exact import (
    BudgetExceeded,
    SparseVector,
    rank_of_vectors,
)
from .families import (
    DefectPairFamily,
    E1PlusEkFamily,
    FiniteDefectSetFamily,
    InfiniteDefectSetFamily,
    MalformedDefectSet,
    RandomFiniteFamily,
    SystemFamily,
    UnsupportedFamily,
    YoungFamily,
    parse_family,
)
from .indexsets import (
    EventuallyPeriodicSet,
    parse_set,
    rho,
    sigma_m,
)
from .mixed import (
    INCONCLUSIVE,
    DefectReport,
    TooLarge,
    classify_defect,
    defect_truncated_many,
    distance_profile,
    hereditary_scan,
    mixed_vectors,
    selection_key,
    witness_check,
)
from .topology import (
    IntervalValue,
    ZeroVector,
    convergence_probe,
    intersection_chain,
    projector_metrics,
    semicontinuity_violation,
    sqrt_enclosure,
)
