"""The public API as a whole: where the metric is chosen, and the README
example."""

import contextlib
import inspect
import io
import re
from pathlib import Path

import pytest

import detline
from detline import complexes, determinant, fixtures, lines, modules, torsion

GRAM_NAMES = {"gram", "source_gram", "target_gram"}

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
    for mod in (modules, determinant, complexes, torsion, lines, fixtures):
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
