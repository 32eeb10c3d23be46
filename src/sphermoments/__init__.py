"""Directional-statistics numerics: closed-form moments, diffusion tensors
and fractional anisotropy for spherical distributions, validated against a
numerical-integration oracle."""

from .anisotropy import (
    AnisotropyReport,
    DiffusionTensor,
    MotilityParams,
    anisotropy_ratio,
    diffusion_tensor,
    fractional_anisotropy,
    peanut_closed_form_report,
    symmetric_eigen,
    vmf_closed_form_report,
)
from .distributions import (
    SphericalDistribution,
    bimodal_vmf,
    bingham,
    density,
    distribution_from_json,
    distribution_to_json,
    odf,
    peanut,
    sphere_surface_area,
    validate,
    vmf,
)
from .moments import (
    MomentReport,
    bimodal_vmf_moments,
    odd_moments_zero_check,
    peanut_moments,
    vmf_covariance,
    vmf_mean,
    vmf_moments,
)
from .oracle import (
    McSpec,
    QuadratureSpec,
    mc_moments,
    quad_moments,
    sample_peanut,
    sample_vmf,
)
from .specfun import BesselEval, bessel_i, bessel_ratio, gamma

__version__ = "0.1.0"
