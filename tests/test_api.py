"""The public API as a whole: the lazy namespace, where the metric is
chosen, and the README example."""

import contextlib
import importlib
import inspect
import io
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import detline
from detline import complexes, determinant, fixtures, lines, modules

# detline.torsion is the function; the module is reached by its full name
torsion_module = importlib.import_module("detline.torsion")

GRAM_NAMES = {"gram", "grams", "source_gram", "target_gram"}

# The metric is chosen when a module is built.  These take a gram because
# choosing or testing one is what they do; resolve_gram is the conversion
# they share.
CONSTRUCTION = {
    "HilbertianModule.with_reference_gram",
    "GroupRepresentation.with_module_gram",
    "element_from_product",
    "element_from_extended_product",
    "check_admissible",
    "resolve_gram",
}


def _public_callables():
    """(qualified name, callable) for detline.__all__ and for the public
    functions, classes and methods defined in the metric-bearing modules."""
    seen = {}
    owners = [getattr(detline, name) for name in detline.__all__]
    for mod in (modules, determinant, complexes, torsion_module, lines, fixtures):
        owners += [
            obj
            for name, obj in vars(mod).items()
            if not name.startswith("_") and getattr(obj, "__module__", None) == mod.__name__
        ]
    for obj in owners:
        if inspect.isclass(obj):
            seen[obj.__qualname__] = obj.__init__
            for name, attr in vars(obj).items():
                if isinstance(attr, (staticmethod, classmethod)):
                    attr = attr.__func__
                if inspect.isfunction(attr) and not name.startswith("_"):
                    seen[f"{obj.__qualname__}.{name}"] = attr
        elif inspect.isfunction(obj):
            seen[obj.__qualname__] = obj
    return seen


def test_only_construction_entry_points_take_a_gram():
    found = _public_callables()
    assert {"fk_det", "torsion", "ModuleMorphism.adjoint", "frame_submodule"} <= set(found)
    offenders = sorted(
        name
        for name, fn in found.items()
        if name not in CONSTRUCTION and GRAM_NAMES & set(inspect.signature(fn).parameters)
    )
    assert offenders == []


def test_no_entry_point_takes_a_choice_that_cannot_change_its_answer():
    # the path route's value and the exact-sequence isomorphism do not depend
    # on the path or the retraction, a tensor sum lands on the direct sum of
    # its summands, and a regular module is re-metrised by with_reference_gram
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(determinant.fk_det_path) == ["module", "op"]
    assert "retraction" not in params(lines.exact_sequence_iso)
    assert "total" not in params(lines.tensor_sum)
    assert params(modules.regular_module) == ["dec"]
    assert "abelian_spectral_density" not in detline.__all__
    assert not hasattr(detline, "abelian_spectral_density")


def _readme_library_block():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_prints_its_comments():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_readme_library_block(), "README.md", "exec"), {})
    values = [float(line) for line in out.getvalue().split()]
    assert values == pytest.approx([2.0, 3.0 ** (-1.0 / 3.0), 2.0], rel=0.0, abs=1e-12)


# -- the lazy namespace ----------------------------------------------------------

PUBLIC_NAMES = [
    "AlgebraElement", "CHAIN", "COCHAIN", "CellComplex", "CommutantOperator",
    "DetLineElement", "DeterminantResult", "DetlineError", "FiniteGroupTable",
    "FiniteVonNeumannAlgebra", "GradedDetLineElement", "GroupAlgebraDecomposition",
    "GroupRepresentation", "GroupRingElement", "HilbertianChainComplex",
    "HilbertianModule", "HodgeData", "IllConditionedKernel", "IndeterminateConvergence",
    "KernelDetected", "LaurentMatrix", "MathematicalRefusal", "ModuleMorphism",
    "NonInvertible", "NotDenselyExact", "NotDeterminantClass", "NotUnimodular",
    "ParseError", "SpectralDensity", "TorsionReport", "TorusGrid", "ValidationError",
    "ZetaReport", "abelian_dense_isomorphism_check", "abelian_determinant_class_check",
    "abelian_fk_det", "abelian_fk_det_general", "abelian_torsion", "algebra",
    "assemble_coefficients", "build_group_algebra", "canonical_trace", "check_admissible", "circle", "complexes", "determinant",
    "determinant_class_check", "direct_sum", "element_from_extended_product",
    "element_from_product", "errors", "exact_sequence_iso", "fixtures", "fk_det",
    "fk_det_path", "fk_det_spectral", "free_module", "graded_assemble", "hodge",
    "interval", "invariance_check", "klein_bottle", "lens_space", "lines", "modules",
    "projective_plane", "pushforward", "reference_element",
    "regular_cyclic_representation", "regular_product_representation", "ring",
    "scalar_representation", "sign_representation", "spectral_density", "split_edge",
    "split_torus_face", "standard_module", "symbols", "tensor_sum", "torsion",
    "torsion_iso_via_exact_sequences", "torsion_iso_via_laplacians", "torus", "trace",
    "trivial_representation", "validate_complex", "von_neumann_dimension", "zeta_suite",
]
SUBMODULE_NAMES = {
    "algebra", "complexes", "determinant", "errors", "fixtures", "lines", "modules", "symbols",
}


def _python(code):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def test_namespace_exports_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 88
    assert detline.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(detline))
    for name in PUBLIC_NAMES:
        value = getattr(detline, name)
        if name in SUBMODULE_NAMES:
            assert value is importlib.import_module(f"detline.{name}")
        else:
            assert not isinstance(value, types.ModuleType), name
    assert detline.algebra is sys.modules["detline.algebra"]
    with pytest.raises(AttributeError):
        detline.no_such_name


@pytest.mark.parametrize("first", ["detline.fixtures", "detline.cli", "detline.torsion"])
def test_torsion_stays_the_function_once_its_module_loads(first):
    # the import system binds a loaded submodule on its package; the public
    # function keeps the name, so the README example keeps working
    code = (
        f"import {first}\n"
        "from detline import torsion\n"
        "import detline\n"
        "print(type(torsion).__name__, detline.torsion is torsion, "
        "type(detline.torsion_iso_via_laplacians).__name__)\n"
    )
    assert _python(code) == "function True function"


def test_symbols_and_determinant_load_no_modules_or_algebra():
    # determinant reaches modules only inside _tilde_blocks, so the torus
    # backend and every CLI process that needs no modules skip their import
    code = (
        "import sys, detline.symbols, detline.determinant\n"
        "print(sorted(m for m in sys.modules if m.startswith('detline.')))"
    )
    loaded = _python(code)
    assert "detline.modules" not in loaded and "detline.algebra" not in loaded


def test_bare_import_loads_no_submodule_and_no_numpy():
    code = (
        "import sys, detline\n"
        "print(sorted(m for m in sys.modules if m.startswith(('detline.', 'numpy'))))"
    )
    assert _python(code) == "[]"
