"""JSON document formats for algebras, modules, cocycles and reports.

Every document is an object with a ``kind`` field and a ``payload`` field.
Scalars are exact rationals written as strings, ``"3"`` or ``"-5/7"``.
Basis indices are 1-based in files and 0-based in memory.  Parsing is
strictly separated from mathematical validation: this module raises
:class:`SchemaError` for malformed documents and never for documents
that are well-formed but describe invalid mathematics.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Mapping, NamedTuple

from .cochain_complex import Cochain, OrthogonalModule, cochain_from_terms
from .double_construction import MetricLieAlgebra
from .exact_linalg import Matrix, Vector
from .lie_core import LieAlgebra
from .quadratic_cohomology import QuadraticCocycle

SCALAR_RE = re.compile(r"^-?\d+(/\d+)?$")

KINDS = ("lie_algebra", "module", "cocycle", "metric_lie_algebra", "report")


class SchemaError(ValueError):
    """A document does not match the expected JSON shape."""


# ---------------------------------------------------------------------------
# scalars, vectors, matrices
# ---------------------------------------------------------------------------


def format_scalar(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_scalar(obj: Any, where: str = "scalar") -> Fraction:
    if isinstance(obj, bool):
        raise SchemaError(f"{where}: expected a rational string, got a boolean")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        if not SCALAR_RE.match(obj):
            raise SchemaError(
                f"{where}: {obj!r} is not an exact rational (use 'p' or 'p/q')"
            )
        try:
            return Fraction(obj)
        except ZeroDivisionError:
            raise SchemaError(f"{where}: {obj!r} has a zero denominator") from None
    raise SchemaError(f"{where}: expected a rational string, got {type(obj).__name__}")


def parse_vector(obj: Any, length: int, where: str = "vector") -> Vector:
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected a list of scalars")
    if len(obj) != length:
        raise SchemaError(f"{where}: expected {length} entries, got {len(obj)}")
    return tuple(parse_scalar(entry, f"{where}[{k}]") for k, entry in enumerate(obj))


def format_vector(vector: Vector) -> list[str]:
    return [format_scalar(c) for c in vector]


def parse_square_matrix(obj: Any, where: str = "matrix") -> Matrix:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise SchemaError(f"{where}: expected a list of rows")
    n = len(obj)
    rows = [parse_vector(row, n, f"{where}[{k}]") for k, row in enumerate(obj)]
    return Matrix.from_rows(rows, cols=n)


def format_matrix(matrix: Matrix) -> list[list[str]]:
    return [format_vector(row) for row in matrix.to_rows()]


def _expect_object(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    return obj


def _expect_keys(obj: Mapping, allowed: set[str], required: set[str], where: str) -> None:
    keys = set(obj)
    missing = required - keys
    if missing:
        raise SchemaError(f"{where}: missing fields {sorted(missing)}")
    extra = keys - allowed
    if extra:
        raise SchemaError(f"{where}: unknown fields {sorted(extra)}")


def _parse_index(obj: Any, dim: int, where: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise SchemaError(f"{where}: expected a 1-based integer index")
    if not 1 <= obj <= dim:
        raise SchemaError(f"{where}: index {obj} out of range 1..{dim}")
    return obj - 1


# ---------------------------------------------------------------------------
# Lie algebras
# ---------------------------------------------------------------------------


def algebra_to_payload(algebra: LieAlgebra) -> dict:
    brackets = [
        {
            "i": i + 1,
            "j": j + 1,
            "value": format_vector(value),
        }
        for (i, j), value in sorted(algebra.brackets.items())
    ]
    return {
        "dim": algebra.dim,
        "labels": list(algebra.labels),
        "brackets": brackets,
    }


def parse_algebra_payload(payload: Any, where: str = "lie_algebra") -> LieAlgebra:
    """Parse structure constants; Jacobi validation is left to the caller."""
    payload = _expect_object(payload, where)
    _expect_keys(payload, {"dim", "labels", "brackets"}, {"dim", "brackets"}, where)
    dim = payload["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
        raise SchemaError(f"{where}.dim: expected a nonnegative integer")
    labels = None
    if "labels" in payload:
        raw = payload["labels"]
        if not isinstance(raw, list) or len(raw) != dim:
            raise SchemaError(f"{where}.labels: expected {dim} strings")
        if not all(isinstance(s, str) for s in raw):
            raise SchemaError(f"{where}.labels: expected strings")
        labels = tuple(raw)
    if not isinstance(payload["brackets"], list):
        raise SchemaError(f"{where}.brackets: expected a list")
    brackets: dict[tuple[int, int], Vector] = {}
    for k, item in enumerate(payload["brackets"]):
        spot = f"{where}.brackets[{k}]"
        item = _expect_object(item, spot)
        _expect_keys(item, {"i", "j", "value"}, {"i", "j", "value"}, spot)
        i = _parse_index(item["i"], dim, f"{spot}.i")
        j = _parse_index(item["j"], dim, f"{spot}.j")
        if i == j:
            raise SchemaError(f"{spot}: repeated index {i + 1}")
        value = parse_vector(item["value"], dim, f"{spot}.value")
        if i > j:
            i, j = j, i
            value = tuple(-c for c in value)
        if (i, j) in brackets:
            raise SchemaError(f"{spot}: duplicate bracket for ({i + 1}, {j + 1})")
        brackets[(i, j)] = value
    return LieAlgebra(dim, brackets, labels=labels, validate=False)


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------


class ParsedModule(NamedTuple):
    """Module data before the orthogonality checks run."""

    gram: Matrix

    def build(self) -> OrthogonalModule:
        return OrthogonalModule(self.gram)


def module_to_payload(module: OrthogonalModule) -> dict:
    return {"dim": module.dim, "gram": format_matrix(module.gram)}


def parse_module_payload(payload: Any, where: str = "module") -> ParsedModule:
    payload = _expect_object(payload, where)
    _expect_keys(payload, {"dim", "gram"}, {"dim", "gram"}, where)
    dim = payload["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
        raise SchemaError(f"{where}.dim: expected a nonnegative integer")
    gram = parse_square_matrix(payload["gram"], f"{where}.gram")
    if gram.rows != dim:
        raise SchemaError(f"{where}.gram: expected a {dim}x{dim} matrix")
    return ParsedModule(gram)


# ---------------------------------------------------------------------------
# cocycles
# ---------------------------------------------------------------------------


class ParsedCocycle(NamedTuple):
    """Cocycle terms plus optional embedded context, before validation."""

    alpha_terms: tuple[tuple[tuple[int, int], list], ...]
    gamma_terms: tuple[tuple[tuple[int, int, int], Fraction], ...]
    algebra: LieAlgebra | None = None
    module: ParsedModule | None = None


def cochains_to_payload(alpha: Cochain, gamma: Cochain) -> dict:
    """Payload of a context-free cocycle document: the terms of both forms."""
    return {
        "alpha": [
            {"i": key[0] + 1, "j": key[1] + 1, "value": format_vector(value)}
            for key, value in sorted(alpha.values.items())
        ],
        "gamma": [
            {
                "i": key[0] + 1,
                "j": key[1] + 1,
                "k": key[2] + 1,
                "value": format_scalar(value[0]),
            }
            for key, value in sorted(gamma.values.items())
        ],
    }


def cocycle_to_payload(cocycle: QuadraticCocycle) -> dict:
    """Payload of a cocycle document with its algebra and module embedded."""
    payload = cochains_to_payload(cocycle.alpha, cocycle.gamma)
    payload["algebra"] = algebra_to_payload(cocycle.algebra)
    payload["module"] = module_to_payload(cocycle.module)
    return payload


def parse_cocycle_payload(payload: Any, where: str = "cocycle") -> ParsedCocycle:
    payload = _expect_object(payload, where)
    _expect_keys(
        payload, {"alpha", "gamma", "algebra", "module"}, {"alpha", "gamma"}, where
    )
    algebra = None
    if "algebra" in payload:
        algebra = parse_algebra_payload(payload["algebra"], f"{where}.algebra")
    module = None
    if "module" in payload:
        module = parse_module_payload(payload["module"], f"{where}.module")

    if not isinstance(payload["alpha"], list):
        raise SchemaError(f"{where}.alpha: expected a list")
    if not isinstance(payload["gamma"], list):
        raise SchemaError(f"{where}.gamma: expected a list")

    alpha_terms = []
    for k, item in enumerate(payload["alpha"]):
        spot = f"{where}.alpha[{k}]"
        item = _expect_object(item, spot)
        _expect_keys(item, {"i", "j", "value"}, {"i", "j", "value"}, spot)
        if isinstance(item["i"], bool) or not isinstance(item["i"], int):
            raise SchemaError(f"{spot}.i: expected a 1-based integer index")
        if isinstance(item["j"], bool) or not isinstance(item["j"], int):
            raise SchemaError(f"{spot}.j: expected a 1-based integer index")
        if not isinstance(item["value"], list):
            raise SchemaError(f"{spot}.value: expected a list of scalars")
        alpha_terms.append(((item["i"], item["j"]), item["value"]))

    gamma_terms = []
    for k, item in enumerate(payload["gamma"]):
        spot = f"{where}.gamma[{k}]"
        item = _expect_object(item, spot)
        _expect_keys(item, {"i", "j", "k", "value"}, {"i", "j", "k", "value"}, spot)
        for field in ("i", "j", "k"):
            if isinstance(item[field], bool) or not isinstance(item[field], int):
                raise SchemaError(f"{spot}.{field}: expected a 1-based integer index")
        value = parse_scalar(item["value"], f"{spot}.value")
        gamma_terms.append(((item["i"], item["j"], item["k"]), value))

    return ParsedCocycle(tuple(alpha_terms), tuple(gamma_terms), algebra, module)


def assemble_cochains(
    parsed: ParsedCocycle, algebra: LieAlgebra, module: OrthogonalModule
) -> tuple[Cochain, Cochain]:
    """Resolve 1-based terms against concrete dimensions.

    Shape problems raise :class:`SchemaError`; the returned cochains are
    normalized but not yet checked against the cocycle conditions.
    """
    n, m = algebra.dim, module.dim
    alpha_terms = []
    for (i, j), value in parsed.alpha_terms:
        for index in (i, j):
            if not 1 <= index <= n:
                raise SchemaError(f"cocycle.alpha: index {index} out of range 1..{n}")
        if i == j:
            raise SchemaError(f"cocycle.alpha: repeated index {i}")
        vec = parse_vector(value, m, "cocycle.alpha.value")
        alpha_terms.append(((i - 1, j - 1), vec))
    gamma_terms = []
    for (i, j, k), value in parsed.gamma_terms:
        for index in (i, j, k):
            if not 1 <= index <= n:
                raise SchemaError(f"cocycle.gamma: index {index} out of range 1..{n}")
        if len({i, j, k}) != 3:
            raise SchemaError(f"cocycle.gamma: repeated index in ({i}, {j}, {k})")
        gamma_terms.append(((i - 1, j - 1, k - 1), (value,)))
    alpha = cochain_from_terms(n, 2, m, alpha_terms)
    gamma = cochain_from_terms(n, 3, 1, gamma_terms, scalar=True)
    return alpha, gamma


# ---------------------------------------------------------------------------
# metric Lie algebras
# ---------------------------------------------------------------------------


class ParsedMetric(NamedTuple):
    algebra: LieAlgebra
    gram: Matrix
    provenance: ParsedCocycle | None = None


def metric_to_payload(metric: MetricLieAlgebra) -> dict:
    payload: dict = {
        "algebra": algebra_to_payload(metric.algebra),
        "gram": format_matrix(metric.gram),
    }
    if metric.provenance is not None:
        payload["provenance"] = cocycle_to_payload(metric.provenance)
    return payload


def parse_metric_payload(payload: Any, where: str = "metric_lie_algebra") -> ParsedMetric:
    payload = _expect_object(payload, where)
    _expect_keys(payload, {"algebra", "gram", "provenance"}, {"algebra", "gram"}, where)
    algebra = parse_algebra_payload(payload["algebra"], f"{where}.algebra")
    gram = parse_square_matrix(payload["gram"], f"{where}.gram")
    if gram.rows != algebra.dim:
        raise SchemaError(f"{where}.gram: expected {algebra.dim}x{algebra.dim}")
    provenance = None
    if "provenance" in payload:
        provenance = parse_cocycle_payload(payload["provenance"], f"{where}.provenance")
    return ParsedMetric(algebra, gram, provenance)


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


def wrap(kind: str, payload: dict) -> dict:
    return {"kind": kind, "payload": payload}


def parse_document(obj: Any):
    """Dispatch a raw JSON object to the parser for its kind.

    Returns a pair (kind, parsed) where parsed is a LieAlgebra,
    ParsedModule, ParsedCocycle or ParsedMetric.
    """
    obj = _expect_object(obj, "document")
    _expect_keys(obj, {"kind", "payload"}, {"kind", "payload"}, "document")
    kind = obj["kind"]
    if kind not in KINDS:
        raise SchemaError(f"document.kind: expected one of {list(KINDS)}, got {kind!r}")
    payload = obj["payload"]
    if kind == "lie_algebra":
        return kind, parse_algebra_payload(payload)
    if kind == "module":
        return kind, parse_module_payload(payload)
    if kind == "cocycle":
        return kind, parse_cocycle_payload(payload)
    if kind == "metric_lie_algebra":
        return kind, parse_metric_payload(payload)
    raise SchemaError("report documents are output only")


def loads_document(text: str):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    return parse_document(obj)


def dumps_document(doc: Mapping) -> str:
    return json.dumps(doc, indent=2) + "\n"
