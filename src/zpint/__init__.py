"""Zero-pole interpolation for matrix meromorphic functions on compact
Riemann surfaces, via Cauchy kernels of flat bundles.

Fully concrete at genus 0 (rational matrix functions) and genus 1 (theta
functions on the torus), where a point is a finite complex number, its
coordinate; genus >= 2 is reached through period matrices and theta
functions only.  The package doubles as a numerical verifier of the
identities the construction rests on, up to and including the trisecant
identity and the determinantal-representation correspondence; see
zpint.verify and the `zpint verify-all` command.
"""

from .errors import ZpintError
from .theta import (
    PeriodMatrix,
    ThetaCharacteristic,
    period_from_tau,
    reduce_characteristic,
    riemann_theta,
    theta_gradient,
    theta_many,
    theta_with_char,
)
from .surface import (
    EmbeddingPair,
    FlatLineBundle,
    Sphere,
    Surface,
    Torus,
    build_embedding_functions,
    genus0_surface,
    laurent_coeffs,
    line_bundle,
    prime_form,
    torus_surface,
)
from .genus0 import (
    Genus0Problem,
    RationalMatrixFunction,
    build_gamma_genus0,
    scalar_product_form,
    solve_genus0,
    sylvester_coefficients,
)
from .kernels import (
    CauchyKernelOracle,
    collection_residual,
    direct_sum_kernel,
    extract_laurent_coeffs,
    genus0_kernel,
    line_connection_form,
    line_kernel,
)
from .absint import (
    BundleMapEvaluator,
    GammaMatrix,
    InterpolationDataSet,
    InterpolationNode,
    PoleNode,
    ZeroNode,
    build_gamma,
    build_inverse,
    build_solution,
    divisor_characteristic,
    fay_residual,
    forward_couplings,
    full_rank_multiplicative,
    matrix_fay_residual,
    residue_condition_check,
    scalar_multiplicative,
    scalar_partial_fraction,
    verify_solution,
)
from .detrep import (
    NormalizedSections,
    PencilRep,
    adjust_gamma_by_map,
    build_pencil,
    check_kernel_identities,
    curve_membership,
    line_section_condition,
    normalized_sections,
)
from .conint import (
    ConintDataSet,
    ConintSolution,
    build_gamma0,
    check_condition_I3,
    check_gamma_equality,
    check_intertwining,
    convert_absint_to_conint,
    solve_conint,
)

__version__ = "0.1.0"
