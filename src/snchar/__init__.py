"""Exact toolkit for partition combinatorics, k-cores, symmetric-group
character columns, and mod-p divisibility censuses."""

from .bounds import (
    BoundReport,
    GrowthEnvelopeReport,
    check_core_deficit,
    check_core_fiber_identity,
    check_multipartition_growth,
    core_density_report,
    growth_envelope_report,
)
from .census import (
    CensusRecord,
    CensusResult,
    ColumnCacheError,
    ColumnDivisibilityRecord,
    ColumnStore,
    CoreVanishReport,
    FiberCongruenceReport,
    check_core_vanishing,
    check_fiber_congruence,
    column_divisibility,
    table_census,
    threshold_experiment,
)
from .characters import compute_column
from .cores import count_k_cores, is_k_core, multipartition_count
from .padic import (
    PowerBlockWitness,
    ThresholdParams,
    digit_representative,
    few_distinct_parts,
    fiber_partitions,
    fiber_size,
    is_p_regular,
    is_prime,
    p_adic_digits,
    p_prime_part,
    p_regular_partitions,
    power_block_witness,
)
from .partitions import (
    Partition,
    enumerate_partitions,
    exponent_form,
    partition_count,
)
