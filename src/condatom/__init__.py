"""Exact-arithmetic toolkit for conditional atomlessness on fibered spaces.

Everything is computed over arbitrary-precision rationals: event algebra
and conditional expectations (space), strict splitting and shrink chains
(splitting), the dyadic family and the uniform variable independent of
the fibers (uniform), fiber-level atom scans and pushforward residuals
(kernel), and the density-vector partition calculus for finite families
of measures (densities). The cli module exposes the batch surface and
selftest holds the seeded property suites.
"""

from .densities import (
    Cell,
    CellPartition,
    MeasureFamily,
    block_level_mass,
    block_uniform_transform,
    cond_exp_on_partition,
    conditionally_atomless,
    density_partition,
    density_vectors,
    inclusion_mod_null,
    mixture,
    null_cells,
    site_witness,
    to_fibered_space,
)
from .kernel import (
    KernelReport,
    TestFunction,
    hat_family,
    kernel_atom_scan,
    pushforward_uniformity_check,
    system_nodes,
)
from .piecewise import PiecewiseLinear
from .scenario import (
    Scenario,
    ScenarioError,
    parse_scenario,
    serialize_scenario,
)
from .space import (
    EventSet,
    Fiber,
    FiberedSpace,
    FiberMeasure,
    FiberSlice,
    InvariantError,
    MismatchError,
)
from .splitting import (
    AtomObstruction,
    AtomWitness,
    atom_witness,
    is_conditionally_atomless,
    maximal_split_region,
    shrink_sequence,
    split,
    strict_split_witness,
)
from .uniform import (
    DyadicFamily,
    UniformRV,
    build_dyadic_family,
    build_uniform,
    intersection_mass_curves,
    level_scan,
    level_set,
    set_at_level,
)

__version__ = "0.1.0"

__all__ = [
    "AtomObstruction",
    "AtomWitness",
    "Cell",
    "CellPartition",
    "DyadicFamily",
    "EventSet",
    "Fiber",
    "FiberMeasure",
    "FiberSlice",
    "FiberedSpace",
    "InvariantError",
    "KernelReport",
    "MeasureFamily",
    "MismatchError",
    "PiecewiseLinear",
    "Scenario",
    "ScenarioError",
    "TestFunction",
    "UniformRV",
    "atom_witness",
    "block_level_mass",
    "block_uniform_transform",
    "build_dyadic_family",
    "build_uniform",
    "cond_exp_on_partition",
    "conditionally_atomless",
    "density_partition",
    "density_vectors",
    "hat_family",
    "inclusion_mod_null",
    "intersection_mass_curves",
    "is_conditionally_atomless",
    "kernel_atom_scan",
    "level_scan",
    "level_set",
    "maximal_split_region",
    "mixture",
    "null_cells",
    "parse_scenario",
    "pushforward_uniformity_check",
    "serialize_scenario",
    "set_at_level",
    "shrink_sequence",
    "site_witness",
    "split",
    "strict_split_witness",
    "system_nodes",
    "to_fibered_space",
]
