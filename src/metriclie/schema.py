"""JSON document formats for algebras, modules, cocycles and reports.

Every document is an object with a ``kind`` field and a ``payload`` field.
Scalars are exact rationals written as strings, ``"3"`` or ``"-5/7"``.
Basis indices are 1-based in files and 0-based in memory.  Parsing is
strictly separated from mathematical validation: this module raises
:class:`SchemaError` for malformed documents and never for documents
that are well-formed but describe invalid mathematics.

The terms of an alternating form (brackets, alpha, gamma) are read in one
pass: each index is checked against the dimension it lives in, the indices
may come in any order, and a term given twice, in the same or another order,
is an error rather than a sum.  Every error names its JSON position, as in
``metric_lie_algebra.provenance.alpha[0].i: index 9 out of range 1..2``.
A cocycle's terms are read only once its algebra and module are known.
Files hold each value as a dense list.  A list read is handed to the
constructors as it is, and each list written is made from a stored sparse
row by :func:`format_row`, so no dense view of the package is read.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING, Any, Iterable, Mapping, NamedTuple

from .cochain_complex import Cochain, OrthogonalModule, sort_with_sign
from .exact_linalg import Matrix, Scalar, Vector, _quo
from .lie_core import LieAlgebra

if TYPE_CHECKING:
    from .double_construction import MetricLieAlgebra
    from .quadratic_cohomology import QuadraticCocycle

SCALAR_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")  # the whole string, ASCII digits only: fullmatch

KINDS = ("lie_algebra", "module", "cocycle", "metric_lie_algebra", "report")


class SchemaError(ValueError):
    """A document does not match the expected JSON shape."""


# ---------------------------------------------------------------------------
# scalars, vectors, matrices
# ---------------------------------------------------------------------------


def format_scalar(value: Scalar) -> str:
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # over the digit limit of int -> str, a guard kept
        big = max(abs(value.numerator), value.denominator)
        digits = int((big.bit_length() - 1) * 0.301029995663981) + 1  # digits of 2**(bits - 1)
        digits += big >= 10**digits
        raise SchemaError(f"a scalar with {digits} digits is too long to write") from None


def parse_scalar(obj: Any, where: str = "scalar") -> Scalar:
    """A ``p`` or ``p/q`` string or an int as a canonical scalar (an int if integral)."""
    if isinstance(obj, str) and SCALAR_RE.fullmatch(obj):
        num, _, den = obj.partition("/")
        try:
            return _quo(int(num), int(den)) if den else int(num)
        except ZeroDivisionError:
            raise SchemaError(f"{where}: {obj!r} has a zero denominator") from None
        except ValueError:  # over the digit limit of int(), a guard kept
            raise SchemaError(f"{where}: a scalar of {len(obj)} characters is too long") from None
    if isinstance(obj, bool):
        raise SchemaError(f"{where}: expected a rational string, got a boolean")
    if isinstance(obj, int):
        return int(obj)
    if isinstance(obj, str):
        raise SchemaError(f"{where}: {obj!r} is not an exact rational (use 'p' or 'p/q')")
    raise SchemaError(f"{where}: expected a rational string, got {type(obj).__name__}")


def parse_vector(obj: Any, length: int, where: str = "vector") -> Vector:
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected a list of scalars")
    if len(obj) != length:
        raise SchemaError(f"{where}: expected {length} entries, got {len(obj)}")
    try:
        return tuple([parse_scalar(entry) for entry in obj])
    except SchemaError:  # parse again up to the bad entry, to name its location
        for k, entry in enumerate(obj):
            parse_scalar(entry, f"{where}[{k}]")
        raise


def format_vector(vector: Vector) -> list[str]:
    return [format_scalar(c) for c in vector]


def format_row(row: Mapping[int, Scalar], length: int) -> list[str]:
    """The stored sparse row ``{t: c}`` as the file's dense list of ``length`` scalars."""
    return [format_scalar(row.get(t, 0)) for t in range(length)]


def parse_square_matrix(obj: Any, where: str = "matrix") -> Matrix:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise SchemaError(f"{where}: expected a list of rows")
    n = len(obj)
    rows = [parse_vector(row, n, f"{where}[{k}]") for k, row in enumerate(obj)]
    return Matrix.from_rows(rows, cols=n)


def format_matrix(matrix: Matrix) -> list[list[str]]:
    return [format_row(row, matrix.cols) for row in matrix.nonzero_rows]


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


def _one_based(indices) -> str:
    return "(%s)" % ", ".join(str(i + 1) for i in indices)


def _parse_terms(
    items: Any, fields: tuple[str, ...], dim: int, length: int | None, where: str
) -> dict[tuple[int, ...], Vector]:
    """Read the terms ``{i, j[, k], value}`` of an alternating form.

    The value is a vector of ``length`` scalars, or one scalar when
    ``length`` is None; an odd order of the indices negates it.  A repeated
    index, or a key given twice in any order, is a :class:`SchemaError`.
    """
    if not isinstance(items, list):
        raise SchemaError(f"{where}: expected a list")
    names = {*fields, "value"}
    values: dict[tuple[int, ...], Vector] = {}
    first: dict[tuple[int, ...], str] = {}
    for t, item in enumerate(items):
        spot = f"{where}[{t}]"
        _expect_keys(_expect_object(item, spot), names, names, spot)
        indices = [_parse_index(item[name], dim, f"{spot}.{name}") for name in fields]
        ordered = sort_with_sign(indices)
        if ordered is None:
            raise SchemaError(f"{spot}: repeated index in {_one_based(indices)}")
        key, sign = ordered
        if key in first:
            raise SchemaError(
                f"{spot}: duplicate term for {_one_based(key)}, first given at {first[key]}"
            )
        first[key] = spot
        if length is None:
            value = (parse_scalar(item["value"], f"{spot}.value"),)
        else:
            value = parse_vector(item["value"], length, f"{spot}.value")
        values[key] = value if sign == 1 else tuple(-c for c in value)
    return values


def _format_terms(
    rows: Iterable[tuple[tuple[int, ...], Mapping]], fields: tuple[str, ...], length: int | None
) -> list[dict]:
    """The terms ``{i, j[, k], value}`` of an alternating form from its stored
    ``(key, row)`` pairs, sorted by key: the mirror of :func:`_parse_terms`.
    The value is a list of ``length`` scalars, or one scalar when ``length``
    is None."""
    return [
        {
            **{name: index + 1 for name, index in zip(fields, key)},
            "value": format_scalar(row[0]) if length is None else format_row(row, length),
        }
        for key, row in sorted(rows)  # the keys differ, so no two rows are compared
    ]


# ---------------------------------------------------------------------------
# Lie algebras
# ---------------------------------------------------------------------------


def algebra_to_payload(algebra: LieAlgebra) -> dict:
    return {
        "dim": algebra.dim,
        "labels": list(algebra.labels),
        "brackets": _format_terms(
            [((i, j), p) for i, j, p in algebra._upper()], ("i", "j"), algebra.dim
        ),
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
    brackets = _parse_terms(payload["brackets"], ("i", "j"), dim, dim, f"{where}.brackets")
    return LieAlgebra(dim, brackets, labels=labels, validate=False)


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------


def module_to_payload(module: OrthogonalModule) -> dict:
    return {"dim": module.dim, "gram": format_matrix(module.gram)}


def parse_module_payload(payload: Any, where: str = "module") -> Matrix:
    """The gram matrix of a module; ``OrthogonalModule`` checks its form."""
    payload = _expect_object(payload, where)
    _expect_keys(payload, {"dim", "gram"}, {"dim", "gram"}, where)
    dim = payload["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
        raise SchemaError(f"{where}.dim: expected a nonnegative integer")
    gram = parse_square_matrix(payload["gram"], f"{where}.gram")
    if gram.rows != dim:
        raise SchemaError(f"{where}.gram: expected a {dim}x{dim} matrix")
    return gram


# ---------------------------------------------------------------------------
# cocycles
# ---------------------------------------------------------------------------


def cochains_to_payload(alpha: Cochain, gamma: Cochain) -> dict:
    """Payload of a context-free cocycle document: the terms of both forms."""
    return {
        "alpha": _format_terms(alpha.rows.items(), ("i", "j"), alpha.value_dim),
        "gamma": _format_terms(gamma.rows.items(), ("i", "j", "k"), None),
    }


def cocycle_to_payload(cocycle: QuadraticCocycle) -> dict:
    """Payload of a cocycle document with its algebra and module embedded."""
    payload = cochains_to_payload(cocycle.alpha, cocycle.gamma)
    payload["algebra"] = algebra_to_payload(cocycle.algebra)
    payload["module"] = module_to_payload(cocycle.module)
    return payload


def cocycle_context(
    payload: Any, where: str = "cocycle"
) -> tuple[LieAlgebra | None, Matrix | None]:
    """Check the fields of a cocycle payload; parse its embedded algebra and
    module gram, each None when absent."""
    payload = _expect_object(payload, where)
    _expect_keys(
        payload, {"alpha", "gamma", "algebra", "module"}, {"alpha", "gamma"}, where
    )
    algebra = gram = None
    if "algebra" in payload:
        algebra = parse_algebra_payload(payload["algebra"], f"{where}.algebra")
    if "module" in payload:
        gram = parse_module_payload(payload["module"], f"{where}.module")
    return algebra, gram


def parse_cochains(
    payload: Mapping, n: int, m: int, where: str = "cocycle"
) -> tuple[Cochain, Cochain]:
    """alpha and gamma of a payload checked by :func:`cocycle_context`, on an
    ``n``-dimensional algebra with values in an ``m``-dimensional module.

    The cochains are not yet checked against the cocycle conditions.
    """
    alpha = _parse_terms(payload["alpha"], ("i", "j"), n, m, f"{where}.alpha")
    gamma = _parse_terms(payload["gamma"], ("i", "j", "k"), n, None, f"{where}.gamma")
    return Cochain(n, 2, m, False, alpha), Cochain(n, 3, 1, True, gamma)


# ---------------------------------------------------------------------------
# metric Lie algebras
# ---------------------------------------------------------------------------


class ParsedMetric(NamedTuple):
    """Metric data before the axioms run; ``provenance`` is a cocycle payload."""

    algebra: LieAlgebra
    gram: Matrix
    provenance: Any = None


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
        provenance = _expect_object(payload["provenance"], f"{where}.provenance")
    return ParsedMetric(algebra, gram, provenance)


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


def wrap(kind: str, payload: dict) -> dict:
    return {"kind": kind, "payload": payload}


def parse_document(obj: Any):
    """Dispatch a raw JSON object to the parser for its kind.

    Returns a pair (kind, parsed) where parsed is a LieAlgebra, the gram
    Matrix of a module, a ParsedMetric, or for a cocycle its payload, whose
    terms :func:`parse_cochains` reads once the context is known.
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
        return kind, payload
    if kind == "metric_lie_algebra":
        return kind, parse_metric_payload(payload)
    raise SchemaError("report documents are output only")


def loads_document(text: str):
    try:
        obj = json.loads(text)
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    except ValueError:  # an integer literal over the digit limit of int(), a guard kept
        raise SchemaError("invalid JSON: an integer literal has too many digits") from None
    return parse_document(obj)


def dumps_document(doc: Mapping) -> str:
    return json.dumps(doc, indent=2) + "\n"
