"""LiteForm: lightweight automatic CELL-format composition (Sections 3-5).

The pipeline has three stages, mirroring Figure 2:

1. :class:`~repro.core.selector.FormatSelector` — an ML model predicting
   whether CELL will beat the fixed formats (CSR/BCSR) by >= 1.1x.
2. :class:`~repro.core.partition_model.PartitionPredictor` — an ML model
   predicting the optimal number of column partitions.
3. :func:`~repro.core.bucket_search.build_buckets` — Algorithm 3, a
   binary search over the maximum bucket width driven by the analytic
   cost model of :mod:`~repro.core.cost_model` (Eq. 7), run per partition.
"""

from repro.core.bucket_search import (
    BucketSearchResult,
    build_buckets,
    exhaustive_width_search,
    tune_partition,
)
from repro.core.cost_model import (
    PartitionCostProfile,
    bucket_cost,
    matrix_cost_profiles,
)
from repro.core.parallel import (
    FanoutResult,
    PartitionOutcome,
    compose_partitions,
)
from repro.core.partition_model import PARTITION_CANDIDATES, PartitionPredictor
from repro.core.pipeline import (
    ComposePlan,
    IncrementalState,
    LiteForm,
    compose_cell_plan,
)
from repro.core.selector import FormatSelector
from repro.core.training import (
    FormatSelectionSample,
    PartitionSample,
    TrainingData,
    generate_training_data,
)

__all__ = [
    "bucket_cost",
    "PartitionCostProfile",
    "matrix_cost_profiles",
    "build_buckets",
    "exhaustive_width_search",
    "tune_partition",
    "BucketSearchResult",
    "FormatSelector",
    "PartitionPredictor",
    "PARTITION_CANDIDATES",
    "FanoutResult",
    "PartitionOutcome",
    "compose_partitions",
    "LiteForm",
    "ComposePlan",
    "IncrementalState",
    "compose_cell_plan",
    "TrainingData",
    "FormatSelectionSample",
    "PartitionSample",
    "generate_training_data",
]
