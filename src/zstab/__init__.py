"""Zero-stability toolkit for explicit multistep schemes.

Analyze the root condition and consistency of multistep discretizations,
generate the lambda-parameterized three-step family, integrate
initial-value problems, and simulate noisy deep feature propagation to
observe the divergence behavior that zero stability predicts.
"""

from .polyroots import (
    Polynomial,
    RootFindingError,
    RootSet,
    find_roots,
)
from .schemes import (
    ConsistencyReport,
    Scheme,
    StabilityReport,
    characteristic_polynomial,
    consistency_check,
    first_order,
    lm_second_order,
    root_condition,
)
from .zerosnet import (
    OPTIMAL_LAMBDA,
    RegionScan,
    closed_form_roots,
    in_stability_region,
    max_nonprincipal_modulus,
    scan_region,
    zerosnet_coeffs,
)
from .ivp import (
    DivergenceSeries,
    IVPProblem,
    OrderEstimate,
    Trajectory,
    constant_problem,
    convergence_order,
    decay_problem,
    integrate,
    oscillator_problem,
    zero_stability_probe,
)
from .propagation import (
    BlockMap,
    NoiseSpec,
    SweepReport,
    growth_rate,
    make_block,
    propagate,
    robustness_sweep,
)
from .table8 import REFERENCE_ROWS, verify_reference_table

__version__ = "0.1.0"
