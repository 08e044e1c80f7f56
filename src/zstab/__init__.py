"""Zero-stability toolkit for explicit multistep schemes.

Analyze the root condition and consistency of multistep discretizations,
generate the lambda-parameterized three-step family, integrate
initial-value problems, and simulate noisy deep feature propagation to
observe the divergence behavior that zero stability predicts.

``import zstab`` runs no submodule: each public name, and each submodule,
is imported at its first access (PEP 562), so that ``zstab.cli`` can build
its parser without the modules that run its commands.
"""

import importlib

# Each submodule and the names the package takes from it.
_EXPORTS = {
    "polyroots": ("Polynomial", "RootFindingError", "RootSet", "find_roots"),
    "schemes": (
        "ConsistencyReport", "Scheme", "StabilityReport", "characteristic_polynomial",
        "consistency_check", "first_order", "lm_second_order", "root_condition",
    ),
    "zerosnet": (
        "OPTIMAL_LAMBDA", "RegionScan", "closed_form_roots", "in_stability_region",
        "max_nonprincipal_modulus", "scan_region", "zerosnet_coeffs",
    ),
    "ivp": (
        "DivergenceSeries", "IVPProblem", "OrderEstimate", "Trajectory", "constant_problem",
        "convergence_order", "decay_problem", "integrate", "oscillator_problem",
        "zero_stability_probe",
    ),
    "propagation": (
        "BlockMap", "NoiseSpec", "SweepReport", "growth_rate", "make_block", "propagate",
        "robustness_sweep",
    ),
    "table8": ("REFERENCE_ROWS", "verify_reference_table"),
}
# Each public name and the submodule it lives in; a submodule lives in itself.
_SOURCE = {
    name: module for module, names in _EXPORTS.items() for name in (module, *names)
}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
