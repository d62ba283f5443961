"""Determinant lines, Fuglede-Kadison determinants and torsion volumes
over finite von Neumann algebras, at desk scale.

The namespace re-exports the working set: algebras and their modules,
the determinant routes, determinant lines, Hilbertian complexes with
their Hodge/zeta/torsion machinery, cellular fixtures, and the torus
(Laurent symbol) backend.  Everything else stays in its module.
"""

from .algebra import (
    AlgebraElement,
    FiniteGroupTable,
    FiniteVonNeumannAlgebra,
    GroupAlgebraDecomposition,
    build_group_algebra,
    trace,
)
from .complexes import (
    CHAIN,
    COCHAIN,
    HilbertianChainComplex,
    HodgeData,
    ZetaReport,
    determinant_class_check,
    hodge,
    torsion_iso_via_exact_sequences,
    torsion_iso_via_laplacians,
    validate_complex,
    zeta_suite,
)
from .determinant import (
    DeterminantResult,
    SpectralDensity,
    fk_det,
    fk_det_path,
    fk_det_spectral,
    spectral_density,
)
from .errors import (
    DetlineError,
    IllConditionedKernel,
    IndeterminateConvergence,
    KernelDetected,
    MathematicalRefusal,
    NonInvertible,
    NotDenselyExact,
    NotDeterminantClass,
    NotUnimodular,
    ParseError,
    ValidationError,
)
from .fixtures import (
    circle,
    interval,
    klein_bottle,
    lens_space,
    projective_plane,
    regular_cyclic_representation,
    regular_product_representation,
    scalar_representation,
    sign_representation,
    split_edge,
    split_torus_face,
    torus,
    trivial_representation,
)
from .lines import (
    DetLineElement,
    GradedDetLineElement,
    element_from_extended_product,
    element_from_product,
    exact_sequence_iso,
    graded_assemble,
    pushforward,
    reference_element,
    tensor_sum,
)
from .modules import (
    CommutantOperator,
    HilbertianModule,
    ModuleMorphism,
    canonical_trace,
    check_admissible,
    direct_sum,
    free_module,
    standard_module,
    von_neumann_dimension,
)
from .symbols import (
    LaurentMatrix,
    TorusGrid,
    abelian_determinant_class_check,
    abelian_dense_isomorphism_check,
    abelian_fk_det,
    abelian_fk_det_general,
    abelian_spectral_density,
    abelian_torsion,
)
from .torsion import (
    CellComplex,
    GroupRepresentation,
    GroupRingElement,
    TorsionReport,
    assemble_coefficients,
    invariance_check,
    ring,
    torsion,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
