"""Determinant lines, Fuglede-Kadison determinants and torsion volumes
over finite von Neumann algebras, at desk scale.

The namespace re-exports the working set: algebras and their modules,
the determinant routes, determinant lines, Hilbertian complexes with
their Hodge/zeta/torsion machinery, cellular fixtures, and the torus
(Laurent symbol) backend.  Everything else stays in its module.

The namespace is lazy (PEP 562): `import detline` loads no submodule and
no numpy, and a name imports its module on first access.  A command line
run then compiles only the modules its subcommand uses.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": (
        "AlgebraElement",
        "FiniteGroupTable",
        "FiniteVonNeumannAlgebra",
        "GroupAlgebraDecomposition",
        "build_group_algebra",
        "trace",
    ),
    "complexes": (
        "CHAIN",
        "COCHAIN",
        "HilbertianChainComplex",
        "HodgeData",
        "ZetaReport",
        "determinant_class_check",
        "hodge",
        "torsion_iso_via_exact_sequences",
        "torsion_iso_via_laplacians",
        "validate_complex",
        "zeta_suite",
    ),
    "determinant": (
        "DeterminantResult",
        "SpectralDensity",
        "fk_det",
        "fk_det_path",
        "fk_det_spectral",
        "spectral_density",
    ),
    "errors": (
        "DetlineError",
        "IllConditionedKernel",
        "IndeterminateConvergence",
        "KernelDetected",
        "MathematicalRefusal",
        "NonInvertible",
        "NotDenselyExact",
        "NotDeterminantClass",
        "NotUnimodular",
        "ParseError",
        "ValidationError",
    ),
    "fixtures": (
        "circle",
        "interval",
        "klein_bottle",
        "lens_space",
        "projective_plane",
        "regular_cyclic_representation",
        "regular_product_representation",
        "scalar_representation",
        "sign_representation",
        "split_edge",
        "split_torus_face",
        "torus",
        "trivial_representation",
    ),
    "lines": (
        "DetLineElement",
        "GradedDetLineElement",
        "element_from_extended_product",
        "element_from_product",
        "exact_sequence_iso",
        "graded_assemble",
        "pushforward",
        "reference_element",
        "tensor_sum",
    ),
    "modules": (
        "CommutantOperator",
        "HilbertianModule",
        "ModuleMorphism",
        "canonical_trace",
        "check_admissible",
        "direct_sum",
        "free_module",
        "standard_module",
        "von_neumann_dimension",
    ),
    "symbols": (
        "LaurentMatrix",
        "TorusGrid",
        "abelian_determinant_class_check",
        "abelian_dense_isomorphism_check",
        "abelian_fk_det",
        "abelian_fk_det_general",
        "abelian_torsion",
    ),
    "torsion": (
        "CellComplex",
        "GroupRepresentation",
        "GroupRingElement",
        "TorsionReport",
        "assemble_coefficients",
        "invariance_check",
        "ring",
        "torsion",
    ),
}

# public name -> the submodule that defines it
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules the namespace exports by name (torsion is the function)
_SUBMODULES = tuple(sorted(set(_EXPORTS) - set(_ORIGIN)))

__all__ = sorted([*_ORIGIN, *_SUBMODULES])


def __getattr__(name):
    if name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _ORIGIN:
        value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Namespace(types.ModuleType):
    """The import system binds each loaded submodule on its package; a
    public name keeps its binding over a submodule of the same name, so
    `detline.torsion` stays the function once `detline.torsion` the module
    is loaded."""

    def __setattr__(self, name, value):
        if name in _ORIGIN and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Namespace
