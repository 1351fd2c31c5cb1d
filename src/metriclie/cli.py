"""Command line front end over JSON documents.

Exit codes: 0 when the command succeeds and any verdict is positive,
1 when the mathematics fails (a :class:`~metriclie.lie_core.MathError`:
invalid bracket, broken cocycle identity, algebra not nilpotent, degenerate
module form, metric axiom violation; an inadmissible cocycle; or a failed
internal re-check), 2 when a document or an argument does not parse, a file
cannot be read or written, or an input is over a size limit.

The size limits bound the enumerated work and are checked before it starts:
``verify``, ``admissible`` and ``double`` enumerate the lower central series,
the center, the central filtration and the tensor basis l (x) l^(k+1) of the
algebra, so they take dimension at most ``MAX_DIM`` (``admissible`` on the
64-dim abelian zero cocycle: about 0.1 s on a 2-core Xeon), and so does a
module in every command, as its form is eliminated (a dense 120-dim one took
8 s).  ``MAX_DIM`` bounds the dimension, not the work: on a dense 63-dim
nilpotent table (1,936 brackets) the Jacobi check alone takes over a minute.
A failing (B_k) reports at most dim a kernel tensors, each a dim l x dim
l^(k+1) matrix, never the whole kernel of the bracket pairing; ``cohomology``
eliminates the nonzero entries of d on the bases of C^(p-1) and C^p, whose
two matrices may have at most ``MAX_COHOMOLOGY_CELLS`` entries together
(``--degree 3`` on the 17-dim abelian algebra: about 0.02 s).  The count
stops once it passes the limit, and the report then says "more entries than
the limit", never the exact count, whose digits alone can be too many to
print.  A 0-dim ``--module`` answers 0 at once: C^p(l, 0) = 0 for every l.

Each command runs in a fresh process, so each imports only the modules it
runs: at the top the reader and writer of documents and what ``cohomology``
needs; :mod:`~metriclie.quadratic_cohomology`,
:mod:`~metriclie.double_construction` and :mod:`~metriclie.catalog` inside
the commands that call them.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence, TypeVar

from . import schema
from .cochain_complex import OrthogonalModule, cohomology_dim
from .exact_linalg import Matrix, signature_of
from .lie_core import (
    ConsistencyError,
    LieAlgebra,
    MathError,
    is_nilpotent,
    lower_central_series,
    require_jacobi,
)
from .schema import SchemaError

if TYPE_CHECKING:
    from .catalog import CatalogRow
    from .double_construction import MetricLieAlgebra
    from .quadratic_cohomology import AdmissibilityReport, QuadraticCocycle

DATA_ENV = "METRICLIE_DATA"

EXIT_OK = 0
EXIT_MATH = 1
EXIT_SCHEMA = 2

MAX_DIM = 64
MAX_COHOMOLOGY_CELLS = 2_000_000
MAX_NAME_BYTES = 255  # a file name component on common file systems
_Sized = TypeVar("_Sized", LieAlgebra, Matrix)  # what bounded checks


# ---------------------------------------------------------------------------
# input and output helpers
# ---------------------------------------------------------------------------


def resolve_path(name: str) -> Path:
    """Find a document: literal path, then $METRICLIE_DATA, then bundled data."""
    direct = Path(name)
    if direct.is_file():
        return direct
    override = os.environ.get(DATA_ENV)
    if override:
        candidate = Path(override) / name
        if candidate.is_file():
            return candidate
    bundled = Path(__file__).with_name("data") / name
    if bundled.is_file():
        return bundled
    raise SchemaError(f"cannot find document {name!r}")


def load_document(name: str):
    path = resolve_path(name)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{name}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return schema.loads_document(text)


def load_kind(name: str, kind: str):
    got, parsed = load_document(name)
    if got != kind:
        raise SchemaError(f"{name}: expected a {kind} document, got {got}")
    return parsed


def emit(doc: dict, out: str | None = None) -> None:
    text = schema.dumps_document(doc)
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def report(command: str, **fields) -> dict:
    payload = {"command": command}
    payload.update(fields)
    return schema.wrap("report", payload)


# ---------------------------------------------------------------------------
# shared assembly steps
# ---------------------------------------------------------------------------


def bounded(x: _Sized) -> _Sized:
    """An algebra, or a module's form, if its dimension is within ``MAX_DIM``."""
    what, dim = ("module", x.rows) if isinstance(x, Matrix) else ("algebra", x.dim)
    if dim > MAX_DIM:
        raise SchemaError(f"{what} dimension {dim} is over the limit MAX_DIM = {MAX_DIM}")
    return x


def assemble_cocycle(
    payload: Any, algebra_doc: str | None, module_doc: str | None, where: str = "cocycle"
) -> QuadraticCocycle:
    """The cocycle of a payload in the context of ``--algebra``/``--module``
    or, when those are not given, of the documents it embeds."""
    from .quadratic_cohomology import QuadraticCocycle

    algebra, gram = schema.cocycle_context(payload, where)
    if algebra_doc is not None:
        algebra = load_kind(algebra_doc, "lie_algebra")
    elif algebra is None:
        raise SchemaError(
            "cocycle document has no algebra context; pass --algebra or embed one"
        )
    if module_doc is not None:
        gram = load_kind(module_doc, "module")
    elif gram is None:
        raise SchemaError(
            "cocycle document has no module context; pass --module or embed one"
        )
    algebra = require_jacobi(bounded(algebra))
    module = OrthogonalModule(bounded(gram))
    alpha, gamma = schema.parse_cochains(payload, algebra.dim, module.dim, where)
    return QuadraticCocycle(algebra, module, alpha, gamma)


def admissibility_payload(rep: AdmissibilityReport) -> dict:
    conditions = []
    for cond in rep.conditions:
        entry: dict = {
            "k": cond.k,
            "a_passed": cond.a_passed,
            "b_passed": cond.b_passed,
            "b_image_dim": cond.b_image_dim,
        }
        if cond.a_witness is not None:
            l0, a0, z0 = cond.a_witness
            entry["a_witness"] = {
                "l0": schema.format_vector(l0),
                "a0": schema.format_vector(a0),
                "z0": schema.format_vector(z0),
            }
        if cond.b_witness is not None:
            entry["b_witness"] = [
                [schema.format_vector(row) for row in tensor] for tensor in cond.b_witness
            ]
        conditions.append(entry)
    return {"admissible": rep.overall, "conditions": conditions}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    kind, parsed = load_document(args.document)
    if kind == "lie_algebra":
        algebra = require_jacobi(bounded(parsed))
        series = [s.dim for s in lower_central_series(algebra)]
        fields = {"nilpotent": is_nilpotent(algebra), "series_dims": series}
    elif kind == "module":
        module = OrthogonalModule(bounded(parsed))
        fields = {"dim": module.dim, "signature": list(signature_of(module.gram).as_tuple())}
    elif kind == "cocycle":
        cocycle = assemble_cocycle(parsed, args.algebra, args.module)
        fields = {"algebra_dim": cocycle.algebra.dim, "module_dim": cocycle.module.dim}
    else:  # "metric_lie_algebra": parse_document refuses report documents
        from .double_construction import MetricLieAlgebra, fingerprint, verify_metric

        bounded(parsed.algebra)
        provenance = None
        if parsed.provenance is not None:
            provenance = assemble_cocycle(
                parsed.provenance, None, None, "metric_lie_algebra.provenance"
            )
        metric = MetricLieAlgebra(parsed.algebra, parsed.gram, provenance)
        outcome = verify_metric(metric)
        if not outcome.ok:
            failed = outcome.failures()[0]
            raise MathError(f"{failed.axiom}: {failed.detail}")
        if provenance is not None:
            _check_provenance(metric)
        fields = {
            "nilpotent": is_nilpotent(metric.algebra),
            "fingerprint": _fingerprint_payload(fingerprint(metric)),
        }
    emit(report("verify", kind=kind, ok=True, **fields))
    return EXIT_OK


def _check_provenance(metric: MetricLieAlgebra) -> None:
    """The double of ``metric.provenance`` must have the brackets and the form
    of ``metric``; the labels may differ."""
    from .double_construction import build_double

    if not is_nilpotent(metric.provenance.algebra):
        raise MathError("provenance: the algebra of the cocycle is not nilpotent")
    rebuilt = build_double(metric.provenance)
    if rebuilt.algebra._rows != metric.algebra._rows or rebuilt.gram != metric.gram:
        raise MathError("provenance: the double of the cocycle differs from the document")


def _fingerprint_payload(fp) -> dict:
    """The fields of a fingerprint by name, each tuple as a list."""
    return {name: list(x) if type(x) is tuple else x for name, x in zip(fp._fields, fp.as_tuple())}


def cmd_admissible(args: argparse.Namespace) -> int:
    from .quadratic_cohomology import check_admissible, indecomposability_proxy

    parsed = load_kind(args.document, "cocycle")
    cocycle = assemble_cocycle(parsed, args.algebra, args.module)
    rep = check_admissible(cocycle)
    payload = admissibility_payload(rep)
    payload["proxy_indecomposable"] = indecomposability_proxy(cocycle)
    emit(report("admissible", ok=rep.overall, **payload))
    return EXIT_OK if rep.overall else EXIT_MATH


def cmd_double(args: argparse.Namespace) -> int:
    from .double_construction import build_double, fingerprint

    parsed = load_kind(args.document, "cocycle")
    metric = build_double(assemble_cocycle(parsed, args.algebra, args.module))
    emit(schema.wrap("metric_lie_algebra", schema.metric_to_payload(metric)), args.out)
    if args.out is not None:
        emit(
            report(
                "double",
                ok=True,
                out=args.out,
                fingerprint=_fingerprint_payload(fingerprint(metric)),
            )
        )
    return EXIT_OK


def _capped_comb(n: int, k: int) -> int:
    """comb(n, k), or MAX_COHOMOLOGY_CELLS + 1 once the partial products
    C(n, i), increasing for i <= k = min(k, n - k), pass the limit."""
    k = min(k, n - k)
    c = 1 if k >= 0 else 0
    for i in range(k):
        c = c * (n - i) // (i + 1)
        if c > MAX_COHOMOLOGY_CELLS:
            return MAX_COHOMOLOGY_CELLS + 1
    return c


def cmd_cohomology(args: argparse.Namespace) -> int:
    algebra = require_jacobi(load_kind(args.document, "lie_algebra"))
    module = None
    if args.module is not None:
        module = OrthogonalModule(bounded(load_kind(args.module, "module")))
    if args.degree < 0:
        raise SchemaError("--degree must be nonnegative")
    n, m, p = algebra.dim, 1 if module is None else module.dim, args.degree
    cells = sum(_capped_comb(n, q) * _capped_comb(n, q + 1) * m * m for q in (p - 1, p) if q >= 0)
    if cells > MAX_COHOMOLOGY_CELLS:
        raise SchemaError(
            f"the differential matrices of degree {p} have more entries than the "
            f"limit MAX_COHOMOLOGY_CELLS = {MAX_COHOMOLOGY_CELLS}"
        )
    dim = cohomology_dim(algebra, module, args.degree)
    emit(
        report(
            "cohomology",
            ok=True,
            degree=args.degree,
            dim=dim,
            coefficients="module" if module is not None else "trivial",
        )
    )
    return EXIT_OK


def parse_samples(text: str) -> dict[str, tuple[Fraction, ...]]:
    from . import catalog as cat

    samples = dict(cat.default_samples())
    if not text:
        return samples
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, rest = chunk.partition("=")
        name = name.strip()
        if name not in cat.PARAM_DOMAINS:
            raise SchemaError(f"unknown parameter {name!r} in --samples")
        values = []
        for piece in rest.split(","):
            piece = piece.strip()
            value = schema.parse_scalar(piece, f"--samples {name}")
            if cat.PARAM_DOMAINS[name] == "positive" and value <= 0:
                raise SchemaError(f"--samples {name}: values must be positive")
            values.append(value)
        samples[name] = tuple(values)
    return samples


def _row_payload(row: CatalogRow) -> dict:
    payload: dict = {
        "entry": row.entry_id,
        "params": {k: schema.format_scalar(v) for k, v in row.params},
        "cocycle_valid": row.cocycle_valid,
        "admissible": row.admissible,
        "proxy_indecomposable": row.proxy_indecomposable,
        "double_built": row.double_built,
    }
    if row.fingerprint is not None:
        payload["fingerprint"] = _fingerprint_payload(row.fingerprint)
    if row.error is not None:
        payload["error"] = row.error
    return payload


def _row_filename(row: CatalogRow) -> str:
    stem = row.entry_id.replace(".", "_")
    for name, value in row.params:
        stem += f"__{name}_{schema.format_scalar(value).replace('/', 'over').replace('-', 'm')}"
    return stem + ".json"


def cmd_catalog(args: argparse.Namespace) -> int:
    from . import catalog as cat

    samples = parse_samples(args.samples or "")
    entries = cat.ENTRIES
    if args.entries:
        entries = tuple(e for e in cat.ENTRIES if e.id.startswith(args.entries))
        if not entries:
            raise SchemaError(f"no catalog entries match prefix {args.entries!r}")
    if args.out is not None:  # an unusable directory fails before any work
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    rep = cat.run_catalog(samples, entries)
    if args.out is not None:  # every name and text is made before the first write
        files = []
        for index, (row, double) in enumerate(zip(rep.rows, rep.doubles)):
            if not row.ok:
                continue
            where = f"catalog row {index} ({row.entry_id})"
            try:
                name = _row_filename(row)
                doc = schema.wrap("metric_lie_algebra", schema.metric_to_payload(double))
                files.append((out_dir / name, schema.dumps_document(doc)))
            except SchemaError as exc:
                raise SchemaError(f"{where}: {exc}") from None
            size = len(os.fsencode(name))
            if size > MAX_NAME_BYTES:
                raise SchemaError(f"{where}: a file name of {size} bytes is over {MAX_NAME_BYTES}")
        for path, text in files:
            path.write_text(text)
    if args.table:
        sys.stdout.write(cat.report_table(rep) + "\n")
    else:
        payload = {
            "ok": rep.all_ok,
            "rows": [_row_payload(row) for row in rep.rows],
            "collisions": [
                {"fingerprint": repr(key), "entries": list(ids)}
                for key, ids in rep.collisions
            ],
            "family_splits": [
                {"entry": entry_id, "fingerprints": count}
                for entry_id, count in rep.family_splits
            ],
        }
        emit(report("catalog", **payload))
    return EXIT_OK if rep.all_ok else EXIT_MATH


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metriclie",
        description="Exact metric doubles of nilpotent Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="validate a JSON document")
    p_verify.add_argument("document")
    p_verify.add_argument("--algebra", help="algebra context for cocycle documents")
    p_verify.add_argument("--module", help="module context for cocycle documents")
    p_verify.set_defaults(func=cmd_verify)

    p_adm = sub.add_parser("admissible", help="run the admissibility test")
    p_adm.add_argument("document")
    p_adm.add_argument("--algebra")
    p_adm.add_argument("--module")
    p_adm.set_defaults(func=cmd_admissible)

    p_double = sub.add_parser("double", help="build the metric double of a cocycle")
    p_double.add_argument("document")
    p_double.add_argument("--algebra")
    p_double.add_argument("--module")
    p_double.add_argument("--out", help="write the result here instead of stdout")
    p_double.set_defaults(func=cmd_double)

    p_coh = sub.add_parser("cohomology", help="dimension of a cohomology space")
    p_coh.add_argument("document")
    p_coh.add_argument("--degree", type=int, required=True)
    p_coh.add_argument("--module")
    p_coh.set_defaults(func=cmd_cohomology)

    p_catalog = sub.add_parser("catalog", help="process the classified catalog")
    p_catalog.add_argument("--samples", help="override parameter samples, e.g. 's=1,2;r=1/2'")
    p_catalog.add_argument("--entries", help="only entries whose id starts with this prefix")
    p_catalog.add_argument("--out", help="write double documents into this directory")
    p_catalog.add_argument("--table", action="store_true", help="print a plain text table")
    p_catalog.set_defaults(func=cmd_catalog)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, OSError) as exc:
        emit(report(args.command, ok=False, error=str(exc)))
        return EXIT_SCHEMA
    except (MathError, ConsistencyError) as exc:
        emit(report(args.command, ok=False, error=str(exc)))
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
