"""Certified positivity on the hypercube [-1, 1]^n via Jackson-kernel smoothing.

The package builds explicit sum-of-squares decompositions

    f + eta = sum_J sigma_J * prod_{j in J} (1 - x_j^2)

for polynomials f nonnegative on the cube, and certified lower bounds on
cube minima with an O(1/r^2) convergence guarantee in the kernel degree r.
A certificate is stored in factored form: its nonnegative node weights W
alone, with f + eta = sum_idx W[idx] prod_j S_{idx_j}(x_j).  Each kernel
slice S_t = u_c^2 + u_s^2 + (1 - x^2)(v_c^2 + v_s^2) follows in closed form
from the kernel degree r and the node count m; multiplying out gives the
sigma_J.
"""

from .certificate import (
    BoundReport,
    NotCertifiable,
    ResidualTooLarge,
    SchmudgenCertificate,
    VerificationReport,
    certify,
    corollary_degree,
    kernel_lower_bound,
    rate_sweep,
    verify,
)
from .chebpoly import (
    ChebPoly,
    MonoPoly,
    cheb_from_monomial,
    enumerate_multidegrees,
    grid_extrema,
    hamming_weight,
    mono_from_cheb,
    total_degree,
)
from .jackson import (
    JacksonSpectrum,
    jackson_lambda,
    kernel_eval_1d,
    kernel_eval_nd,
    multi_lambda,
    spectrum,
    verify_prop21,
)
from .kernelop import (
    CertConstant,
    apply_forward,
    apply_inverse,
    constant_C,
    deviation_bound_exact,
    lemma_bounds_check,
    theorem_threshold,
)
from .sos1d import (
    IllConditioned,
    LukacsPair,
    NotNonnegative,
    decompose_kernel_slice,
    decompose_kernel_slices,
    fejer_riesz,
    lukacs_decompose,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CertConstant",
    "ChebPoly",
    "IllConditioned",
    "JacksonSpectrum",
    "LukacsPair",
    "MonoPoly",
    "NotCertifiable",
    "NotNonnegative",
    "ResidualTooLarge",
    "SchmudgenCertificate",
    "VerificationReport",
    "apply_forward",
    "apply_inverse",
    "certify",
    "cheb_from_monomial",
    "constant_C",
    "corollary_degree",
    "decompose_kernel_slice",
    "decompose_kernel_slices",
    "deviation_bound_exact",
    "enumerate_multidegrees",
    "fejer_riesz",
    "grid_extrema",
    "hamming_weight",
    "jackson_lambda",
    "kernel_eval_1d",
    "kernel_eval_nd",
    "kernel_lower_bound",
    "lemma_bounds_check",
    "lukacs_decompose",
    "mono_from_cheb",
    "multi_lambda",
    "rate_sweep",
    "spectrum",
    "theorem_threshold",
    "total_degree",
    "verify",
    "verify_prop21",
]
