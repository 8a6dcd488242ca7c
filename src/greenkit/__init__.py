"""greenkit: spectral Green's-function kernels with explicit regularization.

Time-domain retarded/advanced kernels for first-order (Schrodinger-type) and
second-order (wave-type) equations built from truncated eigenbases, their
frequency-domain pole representations, closed-form oracles for the solvable
models, and a numerical lab for regularized step/delta distributions.
"""

from .distlab import (
    PrincipalValueResult,
    RegularizedFamily,
    delta_ft_check,
    derivative_identity_residual,
    family_eval,
    moment_report,
    regularized_ft,
    sokhotski_plemelj,
)
from .firstorder import (
    Kernel,
    TimeWindow,
    auxiliary_kernel,
    composition_residual,
    free_kernel_closed_form,
    kernel_entry,
    oscillator_kernel_closed_form,
    pde_jump_residual,
    propagate,
    step_factor_kernel,
    theta,
)
from .freqdomain import (
    FreqResponse,
    SpectralDensity,
    convolution_response,
    feynman_combination,
    inverse_transform_roundtrip,
    momentum_response_relativistic,
    response_from_density,
    spectral_density,
)
from .grid import Grid1D, SampledFunction, discrete_delta, inner, quad
from .secondorder import (
    PulseDescriptor,
    SourceField,
    em_kernel_closed_form,
    em_point_charge_field,
    field_from_source,
    point_charge_potential,
    wave_auxiliary_kernel,
    wave_pde_residual,
    wave_step_factor_kernel,
)
from .spectra import (
    Coefficients,
    EigenSystem,
    PhysicalConstants,
    build_free_basis,
    build_helmholtz_basis,
    build_oscillator_basis,
    build_relativistic_branches,
    build_well_basis,
    completeness_residual,
    orthonormality_residual,
    project_state,
    reconstruct,
)
from .validation import CriterionResult, run_acceptance

__version__ = "0.1.0"
