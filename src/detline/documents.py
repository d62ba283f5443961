"""JSON document formats for the command line.

Every input the CLI reads is a JSON document.  Complex matrices serialize
as nested arrays of [re, im] pairs (bare numbers are accepted on input and
read as reals).  Decoders carry a location string so a malformed field is
reported by its path inside the document, and unknown fields are rejected
rather than ignored.

Each decoder imports the layer it builds, so a command loads only the
modules its documents need.

Document shapes:

* algebra: {"blocks": [[n, w], ...]} or
  {"group_table": {"order": N, "product": [[...]], "identity": i}}
* module: {"algebra": ..., "multiplicities": [...], "reference_gram"?: matrix}
  or {"action_generators": [matrix, ...], "reference_gram"?: matrix}
* operator: a matrix, or {"matrix": ...}
* complex: {"algebra": ..., "modules": [...], "boundaries": [matrix, ...],
  "convention": "chain"|"cochain", "grams"?: [matrix|null, ...]}
* cell complex: {"generators": [...], "cells": {"0": [...], ...},
  "boundaries": {"1": [[[coeff, word], ...] row per lower cell], ...}}
* representation: {"module": ..., "generator_images": [matrix, ...] | {name: matrix},
  "side"?: "right"|"left"}
* symbol: {"rank": n, "size": m,
  "coefficients": [{"exponent": [k, ...], "matrix": ...}, ...]}
"""

from __future__ import annotations

import json
import numbers
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParseError, ValidationError

if TYPE_CHECKING:
    from .algebra import FiniteVonNeumannAlgebra
    from .complexes import HilbertianChainComplex
    from .modules import CommutantOperator, HilbertianModule
    from .symbols import LaurentMatrix
    from .torsion import CellComplex, GroupRepresentation

FORMAT_VERSION = 3
MAX_GENERATED_ORDER = 256


def load_document(path: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None


def _expect_mapping(doc, where):
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object, got {type(doc).__name__}")
    return doc


def _check_keys(doc, where, required, optional=()):
    doc = _expect_mapping(doc, where)
    missing = [k for k in required if k not in doc]
    if missing:
        raise ParseError(f"{where}: missing fields {missing}")
    unknown = [k for k in doc if k not in required and k not in optional]
    if unknown:
        raise ParseError(f"{where}: unknown fields {unknown}")
    return doc


def _as_number(value, where):
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _decode_entry(value, where) -> complex:
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ParseError(f"{where}: complex entries are [re, im] pairs")
        return complex(_as_number(value[0], where), _as_number(value[1], where))
    return complex(_as_number(value, where), 0.0)


def _as_integer(value, where) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def _decode_integers(doc, where) -> tuple:
    if not isinstance(doc, list):
        raise ParseError(f"{where}: expected an array of integers")
    return tuple(_as_integer(v, f"{where}[{i}]") for i, v in enumerate(doc))


def _decode_rows(doc, where, decode_entry) -> list:
    if not isinstance(doc, list) or not doc:
        raise ParseError(f"{where}: expected a non-empty array of rows")
    rows = []
    width = None
    for i, row in enumerate(doc):
        if not isinstance(row, list) or not row:
            raise ParseError(f"{where}[{i}]: expected a non-empty row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"{where}[{i}]: ragged row of length {len(row)}")
        rows.append([decode_entry(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)])
    return rows


def decode_matrix(doc, where="matrix") -> np.ndarray:
    return np.array(_decode_rows(doc, where, _decode_entry), dtype=complex)


def encode_matrix(matrix) -> list:
    matrix = np.asarray(matrix, dtype=complex)
    return [
        [[float(v.real), float(v.imag)] for v in row] for row in matrix
    ]


def decode_algebra(doc, where="algebra") -> FiniteVonNeumannAlgebra:
    from .algebra import (
        MAX_GROUP_ORDER,
        FiniteGroupTable,
        FiniteVonNeumannAlgebra,
        build_group_algebra,
    )

    doc = _expect_mapping(doc, where)
    if "blocks" in doc:
        _check_keys(doc, where, ("blocks",))
        blocks = doc["blocks"]
        if not isinstance(blocks, list) or not blocks:
            raise ParseError(f"{where}.blocks: expected a non-empty array")
        parsed = []
        for i, pair in enumerate(blocks):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError(f"{where}.blocks[{i}]: expected [n, w]")
            n = _as_integer(pair[0], f"{where}.blocks[{i}]")
            parsed.append((n, _as_number(pair[1], f"{where}.blocks[{i}]")))
        return FiniteVonNeumannAlgebra(tuple(parsed))
    if "group_table" in doc:
        _check_keys(doc, where, ("group_table",))
        sub = f"{where}.group_table"
        inner = _check_keys(doc["group_table"], sub, ("order", "product"), ("identity",))
        order = _as_integer(inner["order"], f"{sub}.order")
        identity = _as_integer(inner.get("identity", 0), f"{sub}.identity")
        # refused before its rows are decoded and validated, which takes
        # seconds at order 1024
        rows = inner["product"]
        size = max(order, len(rows) if isinstance(rows, list) else 0)
        if size > MAX_GROUP_ORDER:
            raise ValidationError(f"group order {size} exceeds limit {MAX_GROUP_ORDER}")
        product = _decode_rows(rows, f"{sub}.product", _as_integer)
        table = FiniteGroupTable(np.array(product, dtype=int), identity)
        if table.order != order:
            raise ParseError(f"{sub}: order {order} does not match the table")
        return build_group_algebra(table).algebra
    raise ParseError(f"{where}: expected either 'blocks' or 'group_table'")


def _generated_group_module(doc, where) -> HilbertianModule:
    from .algebra import FiniteGroupTable, build_group_algebra
    from .modules import module_from_group_action

    generators = doc["action_generators"]
    if not isinstance(generators, list) or not generators:
        raise ParseError(f"{where}.action_generators: expected a non-empty array")
    mats = [
        decode_matrix(m, f"{where}.action_generators[{i}]")
        for i, m in enumerate(generators)
    ]
    d = mats[0].shape[0]
    for i, mat in enumerate(mats):
        if mat.shape != (d, d):
            raise ParseError(f"{where}.action_generators[{i}]: expected shape {(d, d)}")
    elements = np.eye(d, dtype=complex)[None]

    def find(m):
        # ||e - m||_2 <= 1e-8 implies ||e - m||_F <= 1e-8 sqrt(d): no match is lost
        near = np.linalg.norm(elements - m, axis=(1, 2)) <= 1e-8 * np.sqrt(d)
        for i in np.flatnonzero(near):
            if np.linalg.norm(elements[i] - m, 2) <= 1e-8:
                return i
        return None

    # elements[i] = elements[a] @ mats[j] for (a, j) = step[i], and right[a, j]
    # is the index find gave for elements[a] @ mats[j].
    step = [None]  # the identity
    right = np.zeros((MAX_GENERATED_ORDER, len(mats)), dtype=int)
    frontier = [0]
    while frontier:
        a = frontier.pop()
        for j, g in enumerate(mats):
            product = elements[a] @ g
            idx = find(product)
            if idx is None:
                if len(elements) >= MAX_GENERATED_ORDER:
                    raise ValidationError(
                        f"{where}: generated group exceeds {MAX_GENERATED_ORDER} elements"
                    )
                idx = len(elements)
                elements = np.concatenate([elements, product[None]])
                step.append((a, j))
                frontier.append(idx)
            right[a, j] = idx
    order = len(elements)
    # x elements[i] = (x elements[a]) mats[j]: column i of the table is one
    # right step from column a, which comes first.  module_from_group_action
    # checks every images[g] images[h] against images[product[g, h]].
    product = np.empty((order, order), dtype=int)
    product[:, 0] = np.arange(order)
    for i in range(1, order):
        a, j = step[i]
        product[:, i] = right[product[:, a], j]
    dec = build_group_algebra(FiniteGroupTable(product))
    gram = doc.get("reference_gram")
    if gram is not None:
        gram = decode_matrix(gram, f"{where}.reference_gram")
    return module_from_group_action(dec, elements, gram)


def _layout_module(algebra, doc, where) -> HilbertianModule:
    """A layout document's module over an algebra already decoded."""
    from .modules import HilbertianModule

    mult = _decode_integers(doc["multiplicities"], f"{where}.multiplicities")
    gram = doc.get("reference_gram")
    if gram is not None:
        gram = decode_matrix(gram, f"{where}.reference_gram")
    return HilbertianModule(algebra, mult, reference_gram=gram)


def decode_module(doc, where="module") -> HilbertianModule:
    doc = _expect_mapping(doc, where)
    if "action_generators" in doc:
        _check_keys(doc, where, ("action_generators",), ("reference_gram",))
        return _generated_group_module(doc, where)
    _check_keys(doc, where, ("algebra", "multiplicities"), ("reference_gram",))
    return _layout_module(decode_algebra(doc["algebra"], f"{where}.algebra"), doc, where)


def decode_operator(doc, module, where="operator") -> CommutantOperator:
    from .modules import CommutantOperator

    if isinstance(doc, dict):
        _check_keys(doc, where, ("matrix",))
        doc = doc["matrix"]
        where = f"{where}.matrix"
    matrix = decode_matrix(doc, where)
    return CommutantOperator.from_matrix(module, matrix)


def decode_complex(doc, where="complex", convention=None) -> HilbertianChainComplex:
    """Each degree is a layout module (a bare array is its multiplicities);
    grams[i] re-metrises degree i over its reference_gram.  The complex
    orients the boundary matrices by the convention."""
    from .complexes import CHAIN, COCHAIN, HilbertianChainComplex

    doc = _check_keys(
        doc, where, ("algebra", "modules", "boundaries"), ("convention", "grams")
    )
    algebra = decode_algebra(doc["algebra"], f"{where}.algebra")
    if convention is None:
        convention = doc.get("convention", CHAIN)
    if convention not in (CHAIN, COCHAIN):
        raise ParseError(f"{where}.convention: expected 'chain' or 'cochain'")
    raw_modules = doc["modules"]
    if not isinstance(raw_modules, list) or not raw_modules:
        raise ParseError(f"{where}.modules: expected a non-empty array")
    modules = []
    for i, entry in enumerate(raw_modules):
        sub = f"{where}.modules[{i}]"
        if isinstance(entry, list):
            entry = {"multiplicities": entry}
        entry = _check_keys(entry, sub, ("multiplicities",), ("reference_gram",))
        modules.append(_layout_module(algebra, entry, sub))
    raw_maps = doc["boundaries"]
    if not isinstance(raw_maps, list) or len(raw_maps) != len(modules) - 1:
        raise ParseError(
            f"{where}.boundaries: expected {len(modules) - 1} matrices"
        )
    maps = [decode_matrix(entry, f"{where}.boundaries[{i}]") for i, entry in enumerate(raw_maps)]
    grams = doc.get("grams")
    if grams is not None:
        if not isinstance(grams, list) or len(grams) != len(modules):
            raise ParseError(f"{where}.grams: expected one entry per degree")
        grams = [
            None if g is None else decode_matrix(g, f"{where}.grams[{i}]")
            for i, g in enumerate(grams)
        ]
        modules = [m if g is None else m.with_reference_gram(g) for m, g in zip(modules, grams)]
    return HilbertianChainComplex(modules, maps, convention)


def _decode_ring_entry(entry, where):
    if not isinstance(entry, list):
        raise ParseError(f"{where}: expected an array of [coeff, word] pairs")
    pairs = []
    for j, pair in enumerate(entry):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"{where}[{j}]: expected [coeff, word]")
        coeff, word = pair
        if isinstance(coeff, str):
            try:
                coeff = int(coeff)
            except ValueError:
                raise ParseError(f"{where}[{j}]: bad coefficient {pair[0]!r}") from None
        else:
            coeff = _as_integer(coeff, f"{where}[{j}]")
        if not isinstance(word, str):
            raise ParseError(f"{where}[{j}]: words are strings")
        pairs.append((coeff, word))
    return pairs


def decode_cell_complex(doc, where="cell complex") -> CellComplex:
    from .torsion import CellComplex

    doc = _check_keys(doc, where, ("generators", "cells", "boundaries"))
    generators = doc["generators"]
    if not isinstance(generators, list):
        raise ParseError(f"{where}.generators: expected an array")
    cells_doc = _expect_mapping(doc["cells"], f"{where}.cells")
    try:
        dims = sorted(int(k) for k in cells_doc)
    except ValueError:
        raise ParseError(f"{where}.cells: keys must be dimensions") from None
    if dims != list(range(len(dims))):
        raise ParseError(f"{where}.cells: dimensions must be contiguous from 0")
    cells = [cells_doc[str(d)] for d in dims]
    for d, labels in enumerate(cells):
        if not isinstance(labels, list):
            raise ParseError(f"{where}.cells.{d}: expected an array of labels")
    boundaries_doc = _expect_mapping(doc["boundaries"], f"{where}.boundaries")
    expected = [str(d) for d in dims[1:]]
    if sorted(boundaries_doc, key=int) != expected:
        raise ParseError(f"{where}.boundaries: expected keys {expected}")
    boundaries = []
    for d in expected:
        rows = boundaries_doc[d]
        sub = f"{where}.boundaries.{d}"
        if not isinstance(rows, list):
            raise ParseError(f"{sub}: expected an array of rows")
        matrix = []
        for r, row in enumerate(rows):
            if not isinstance(row, list):
                raise ParseError(f"{sub}[{r}]: expected an array of entries")
            matrix.append(
                [
                    _decode_ring_entry(entry, f"{sub}[{r}][{c}]")
                    for c, entry in enumerate(row)
                ]
            )
        boundaries.append(matrix)
    return CellComplex(generators, cells, boundaries)


def decode_representation(doc, generators, where="representation") -> GroupRepresentation:
    from .torsion import GroupRepresentation

    doc = _check_keys(doc, where, ("module", "generator_images"), ("side",))
    module = decode_module(doc["module"], f"{where}.module")
    side = doc.get("side", "right")
    raw = doc["generator_images"]
    generators = list(generators)
    images = {}
    if isinstance(raw, dict):
        for name, matrix in raw.items():
            if name not in generators:
                raise ParseError(f"{where}.generator_images: unknown generator {name!r}")
            images[name] = decode_matrix(matrix, f"{where}.generator_images[{name!r}]")
    elif isinstance(raw, list):
        if len(raw) != len(generators):
            raise ParseError(
                f"{where}.generator_images: need {len(generators)} images, got {len(raw)}"
            )
        for name, matrix in zip(generators, raw):
            images[name] = decode_matrix(matrix, f"{where}.generator_images[{name!r}]")
    else:
        raise ParseError(f"{where}.generator_images: expected an array or object")
    return GroupRepresentation(module, images, side)


def decode_symbol(doc, where="symbol") -> LaurentMatrix:
    from .symbols import LaurentMatrix

    doc = _check_keys(doc, where, ("rank", "size", "coefficients"))
    rank = _as_integer(doc["rank"], f"{where}.rank")
    size = _as_integer(doc["size"], f"{where}.size")
    coefficients = doc["coefficients"]
    if not isinstance(coefficients, list):
        raise ParseError(f"{where}.coefficients: expected an array")
    terms = {}
    for i, entry in enumerate(coefficients):
        sub = f"{where}.coefficients[{i}]"
        entry = _check_keys(entry, sub, ("exponent", "matrix"))
        exponent = entry["exponent"]
        if isinstance(exponent, numbers.Integral) and not isinstance(exponent, bool):
            exponent = [exponent]
        key = _decode_integers(exponent, f"{sub}.exponent")
        if key in terms:
            raise ParseError(f"{sub}: duplicate exponent {list(key)}")
        matrix = decode_matrix(entry["matrix"], f"{sub}.matrix")
        if matrix.shape != (size, size):
            raise ParseError(f"{sub}.matrix: expected shape {(size, size)}")
        terms[key] = matrix
    return LaurentMatrix(rank, terms, shape=(size, size))


def encode_symbol(symbol: LaurentMatrix) -> dict:
    return {
        "rank": symbol.rank,
        "size": symbol.size,
        "coefficients": [
            {"exponent": list(k), "matrix": encode_matrix(c)}
            for k, c in symbol.coefficients.items()
        ],
    }


def document_kind(doc) -> str:
    """Classify a loaded document by its fields."""
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    keys = set(doc)
    if {"rank", "coefficients"} <= keys:
        return "symbol"
    if "cells" in keys:
        return "cell_complex"
    if {"modules", "boundaries"} <= keys:
        return "complex"
    if "generator_images" in keys:
        return "representation"
    if "multiplicities" in keys or "action_generators" in keys:
        return "module"
    if "blocks" in keys or "group_table" in keys:
        return "algebra"
    raise ParseError(f"cannot classify a document with fields {sorted(keys)}")


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, numbers.Complex):
        return [float(value.real), float(value.imag)]
    raise ValidationError(f"cannot serialize {type(value).__name__} into a report")


def structured_report(payload: dict) -> str:
    """Deterministic machine-readable report: sorted keys, versioned."""
    body = {"format_version": FORMAT_VERSION}
    body.update(_jsonable(payload))
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def text_report(payload: dict) -> str:
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for key in value:
                walk(f"{prefix}.{key}" if prefix else str(key), value[key])
        elif isinstance(value, (list, tuple)) and any(
            isinstance(v, (dict, list, tuple)) for v in value
        ):
            for i, v in enumerate(value):
                walk(f"{prefix}[{i}]", v)
        else:
            if isinstance(value, (list, tuple)):
                rendered = "[" + ", ".join(str(_jsonable(v)) for v in value) + "]"
            else:
                rendered = str(_jsonable(value))
            lines.append(f"{prefix}: {rendered}")

    walk("", payload)
    return "\n".join(lines)
