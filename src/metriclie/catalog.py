"""Classified inventory of admissible cocycles on small nilpotent algebras.

Every entry pairs a base algebra of dimension at most six with an orthogonal
coefficient space and a quadratic cocycle (alpha, gamma).  Instantiating an
entry (after substituting any free rational parameters) yields a validated
:class:`~metriclie.quadratic_cohomology.QuadraticCocycle`, and running the
catalog pushes each instance through the admissibility test and the double
construction, recording metric fingerprints along the way.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from typing import Mapping, NamedTuple, Sequence

from .cochain_complex import Cochain, OrthogonalModule, cochain_from_terms
from .double_construction import Fingerprint, MetricLieAlgebra, build_double, fingerprint
from .exact_linalg import Matrix, _Record, scalar, unit_vector
from .lie_core import LieAlgebra, abelian
from .quadratic_cohomology import (
    CocycleError,
    QuadraticCocycle,
    check_admissible,
    indecomposability_proxy,
)

# ---------------------------------------------------------------------------
# base algebras
# ---------------------------------------------------------------------------


def heisenberg() -> LieAlgebra:
    """Three dimensional algebra with [X1, X2] = Y."""
    return LieAlgebra(3, {(0, 1): unit_vector(3, 2)}, labels=("X1", "X2", "Y"))


def heisenberg_line() -> LieAlgebra:
    """Heisenberg algebra extended by a central line: [X1, X2] = X3."""
    return LieAlgebra(4, {(0, 1): unit_vector(4, 2)}, labels=("X1", "X2", "X3", "X4"))


def g41() -> LieAlgebra:
    """Filiform algebra on (X1, X2, Z, Y) with [X1, X2] = Z, [X1, Z] = Y."""
    return LieAlgebra(
        4,
        {(0, 1): unit_vector(4, 2), (0, 2): unit_vector(4, 3)},
        labels=("X1", "X2", "Z", "Y"),
    )


def g52() -> LieAlgebra:
    """Five dimensional algebra with [X1, X2] = Y and [X1, X3] = Z."""
    return LieAlgebra(
        5,
        {(0, 1): unit_vector(5, 3), (0, 2): unit_vector(5, 4)},
        labels=("X1", "X2", "X3", "Y", "Z"),
    )


def g64() -> LieAlgebra:
    """Six dimensional algebra: [X1, X2] = Y, [X1, X3] = Z, [X3, X4] = Y."""
    return LieAlgebra(
        6,
        {
            (0, 1): unit_vector(6, 4),
            (0, 2): unit_vector(6, 5),
            (2, 3): unit_vector(6, 4),
        },
        labels=("X1", "X2", "X3", "X4", "Y", "Z"),
    )


def g65() -> LieAlgebra:
    """Six dimensional algebra: [X1, X2] = Y, [X1, X3] = Z, [X2, X4] = Z, [X3, X4] = -Y."""
    neg_y = tuple(-c for c in unit_vector(6, 4))
    return LieAlgebra(
        6,
        {
            (0, 1): unit_vector(6, 4),
            (0, 2): unit_vector(6, 5),
            (1, 3): unit_vector(6, 5),
            (2, 3): neg_y,
        },
        labels=("X1", "X2", "X3", "X4", "Y", "Z"),
    )


BASE_BUILDERS = {
    "R2": lambda: abelian(2),
    "R3": lambda: abelian(3),
    "R4": lambda: abelian(4),
    "R5": lambda: abelian(5),
    "h1": heisenberg,
    "h1R": heisenberg_line,
    "g41": g41,
    "g52": g52,
    "g64": g64,
    "g65": g65,
}


@cache
def base_algebra(name: str) -> LieAlgebra:
    """The base algebra ``name``, one shared instance per name, so its
    series and center are computed once for every entry on it."""
    try:
        builder = BASE_BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown base algebra {name!r}") from None
    return builder()


# ---------------------------------------------------------------------------
# coefficient spaces
# ---------------------------------------------------------------------------


def orthonormal_module(diag: Sequence[int]) -> OrthogonalModule:
    """Module with diagonal inner product given by the signs in ``diag``."""
    return OrthogonalModule(Matrix.diagonal([scalar(d) for d in diag]))


def witt_plane() -> OrthogonalModule:
    """Two dimensional module in a null basis: <A1, A2> = 1."""
    rows = [[0, 1], [1, 0]]
    return OrthogonalModule(Matrix.from_rows(rows))


def witt_four() -> OrthogonalModule:
    """Four dimensional module in a null basis: <A1, A3> = <A2, A4> = 1."""
    rows = [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ]
    return OrthogonalModule(Matrix.from_rows(rows))


MODULE_BUILDERS = {
    "none": lambda: OrthogonalModule(Matrix.identity(0)),
    "r01": lambda: orthonormal_module([1]),
    "r10": lambda: orthonormal_module([-1]),
    "r02": lambda: orthonormal_module([1, 1]),
    "r20": lambda: orthonormal_module([-1, -1]),
    "r11": lambda: orthonormal_module([-1, 1]),
    "r11s": lambda: orthonormal_module([1, -1]),
    "r11w": witt_plane,
    "r03": lambda: orthonormal_module([1, 1, 1]),
    "r30": lambda: orthonormal_module([-1, -1, -1]),
    "r12": lambda: orthonormal_module([-1, 1, 1]),
    "r21": lambda: orthonormal_module([-1, -1, 1]),
    "r22w": witt_four,
}


@cache
def module_for_tag(tag: str) -> OrthogonalModule:
    """The coefficient space ``tag``, one shared instance per tag."""
    try:
        builder = MODULE_BUILDERS[tag]
    except KeyError:
        raise KeyError(f"unknown module tag {tag!r}") from None
    return builder()


# ---------------------------------------------------------------------------
# cocycle data
# ---------------------------------------------------------------------------

#: alpha term: (coefficient, (i, j), target coordinate of the module)
AlphaTerm = tuple[object, tuple[int, int], int]
#: gamma term: (coefficient, (i, j, k))
GammaTerm = tuple[object, tuple[int, int, int]]

# Standard families of module valued 2-forms on a four dimensional base,
# written against basis indices 0..3 and module coordinates A1, A2.
FORM_TERMS: dict[str, tuple[AlphaTerm, ...]] = {
    "f1": ((1, (0, 2), 0), (1, (1, 3), 0), (1, (1, 2), 1), (1, (0, 3), 1)),
    "f2": ((1, (0, 2), 0), (-1, (1, 3), 0), (1, (1, 2), 1), (1, (0, 3), 1)),
    "f3": ((1, (0, 2), 0), (1, (1, 2), 1), (1, (0, 3), 1)),
    "f4": ((1, (0, 2), 0), (1, (1, 2), 1)),
    "f5": ((1, (0, 2), 0), (1, (0, 3), 1)),
    "f5p": ((1, (0, 3), 0), (1, (0, 2), 1)),
    "f6": ((1, (0, 2), 0), (1, (1, 3), 1)),
    "f6p": ((1, (1, 3), 0), (1, (0, 2), 1)),
    "f7": ((1, (0, 2), 0),),
}

#: volume form on the last three basis vectors of a four dimensional base
GAMMA0_TERMS: tuple[GammaTerm, ...] = ((1, (1, 2, 3)),)

#: companion 3-form for the f4 rows on the abelian four dimensional base
GAMMA124_TERMS: tuple[GammaTerm, ...] = ((1, (0, 1, 3)),)

PARAM_DOMAINS = {"s": "rational", "r": "positive"}


class CatalogEntry(NamedTuple):
    """One classified cocycle, possibly depending on rational parameters."""

    id: str
    item: str
    base: str
    module_tag: str
    alpha_terms: tuple[AlphaTerm, ...] = ()
    gamma_terms: tuple[GammaTerm, ...] = ()
    params: tuple[str, ...] = ()


def _resolve(coeff: object, params: Mapping[str, Fraction]) -> Fraction:
    if isinstance(coeff, str):
        return params[coeff]
    return scalar(coeff)  # type: ignore[arg-type]


def alpha_cochain(
    terms: Sequence[AlphaTerm], n: int, m: int, params: Mapping[str, Fraction]
) -> Cochain:
    """The module valued 2-form of ``terms`` on an ``n``-dimensional base."""
    values = []
    for coeff, indices, target in terms:
        value = tuple(
            _resolve(coeff, params) if k == target else 0 for k in range(m)
        )
        values.append((indices, value))
    return cochain_from_terms(n, 2, m, values)


def gamma_cochain(
    terms: Sequence[GammaTerm], n: int, params: Mapping[str, Fraction]
) -> Cochain:
    """The scalar 3-form of ``terms`` on an ``n``-dimensional base."""
    values = [(indices, (_resolve(coeff, params),)) for coeff, indices in terms]
    return cochain_from_terms(n, 3, 1, values, scalar=True)


def instantiate(
    entry: CatalogEntry, params: Mapping[str, Fraction] | None = None
) -> QuadraticCocycle:
    """Build the validated cocycle for ``entry`` at the given parameter values."""
    params = dict(params or {})
    expected = set(entry.params)
    given = set(params)
    if given != expected:
        raise ValueError(
            f"entry {entry.id} expects parameters {sorted(expected)}, got {sorted(given)}"
        )
    for name, value in params.items():
        params[name] = scalar(value)
        if PARAM_DOMAINS.get(name) == "positive" and params[name] <= 0:
            raise ValueError(f"parameter {name} of {entry.id} must be positive")
    algebra = base_algebra(entry.base)
    module = module_for_tag(entry.module_tag)
    alpha = alpha_cochain(entry.alpha_terms, algebra.dim, module.dim, params)
    gamma = gamma_cochain(entry.gamma_terms, algebra.dim, params)
    return QuadraticCocycle(algebra, module, alpha, gamma)


# ---------------------------------------------------------------------------
# the entry list
# ---------------------------------------------------------------------------


def _forms(tag: str, with_gamma0: bool = False) -> dict[str, object]:
    data: dict[str, object] = {"alpha_terms": FORM_TERMS[tag]}
    if with_gamma0:
        data["gamma_terms"] = GAMMA0_TERMS
    return data


def _build_entries() -> tuple[CatalogEntry, ...]:
    entries: list[CatalogEntry] = []

    def add(entry_id: str, item: str, base: str, module_tag: str, **kwargs) -> None:
        entries.append(CatalogEntry(entry_id, item, base, module_tag, **kwargs))

    # item 1: five dimensional abelian base, no module, fixed 3-form
    add(
        "T1.1",
        "1",
        "R5",
        "none",
        gamma_terms=((1, (0, 1, 4)), (1, (2, 3, 4))),
    )

    # item 2: two 3-forms on the five dimensional two-step algebra
    add("T1.2.a", "2", "g52", "none", gamma_terms=((1, (0, 3, 4)),))
    add(
        "T1.2.b",
        "2",
        "g52",
        "none",
        gamma_terms=((1, (0, 3, 4)), (1, (1, 2, 4))),
    )

    # item 3: filiform base with alpha = sX1^sY A1 (+ sX2^sZ A2 when dim a = 2)
    alpha3_1 = ((1, (0, 3), 0),)
    alpha3_2 = ((1, (0, 3), 0), (1, (1, 2), 1))
    alpha3_2_swapped = ((1, (1, 2), 0), (1, (0, 3), 1))
    gamma3 = {
        "g0": (),
        "g1": ((1, (0, 3, 2)),),
        "g1m": ((-1, (0, 3, 2)),),
        "g2": ((1, (1, 3, 2)),),
    }
    for tag in ("r01", "r10"):
        for gname, gterms in gamma3.items():
            add(
                f"T1.3a.{tag}.{gname}",
                "3a",
                "g41",
                tag,
                alpha_terms=alpha3_1,
                gamma_terms=gterms,
            )
    for tag in ("r02", "r20"):
        add(
            f"T1.3b.{tag}.s",
            "3b",
            "g41",
            tag,
            alpha_terms=alpha3_2,
            gamma_terms=(("s", (0, 3, 2)),),
            params=("s",),
        )
        add(
            f"T1.3b.{tag}.r",
            "3b",
            "g41",
            tag,
            alpha_terms=alpha3_2,
            gamma_terms=(("r", (1, 3, 2)),),
            params=("r",),
        )
    for aname, aterms in (("a12", alpha3_2), ("a21", alpha3_2_swapped)):
        add(
            f"T1.3c.r11.{aname}.s",
            "3c",
            "g41",
            "r11",
            alpha_terms=aterms,
            gamma_terms=(("s", (0, 3, 2)),),
            params=("s",),
        )
        add(
            f"T1.3c.r11.{aname}.r",
            "3c",
            "g41",
            "r11",
            alpha_terms=aterms,
            gamma_terms=(("r", (1, 3, 2)),),
            params=("r",),
        )

    # item 4: central extension of the Heisenberg algebra by a line
    for tag in ("r02", "r20"):
        for fname in ("f1", "f5", "f6"):
            add(f"T1.4a.{tag}.{fname}", "4a", "h1R", tag, **_forms(fname))
        for fname in ("f5", "f6"):
            add(
                f"T1.4a.{tag}.{fname}g",
                "4a",
                "h1R",
                tag,
                **_forms(fname, with_gamma0=True),
            )
    for fname in ("f1", "f2", "f3"):
        add(f"T1.4b.r11w.{fname}", "4b", "h1R", "r11w", **_forms(fname))
    for fname in ("f5", "f5p", "f6", "f6p"):
        add(f"T1.4b.r11s.{fname}", "4b", "h1R", "r11s", **_forms(fname))
        add(
            f"T1.4b.r11s.{fname}g",
            "4b",
            "h1R",
            "r11s",
            **_forms(fname, with_gamma0=True),
        )
    for tag in ("r01", "r10"):
        add(f"T1.4c.{tag}", "4c", "h1R", tag, **_forms("f7", with_gamma0=True))

    # item 5: four dimensional abelian base
    for tag in ("r02", "r20"):
        add(f"T1.5a.{tag}.f1", "5a", "R4", tag, **_forms("f1"))
        add(
            f"T1.5a.{tag}.f4g",
            "5a",
            "R4",
            tag,
            alpha_terms=FORM_TERMS["f4"],
            gamma_terms=GAMMA124_TERMS,
        )
    for fname in ("f1", "f2", "f3"):
        add(f"T1.5b.r11w.{fname}", "5b", "R4", "r11w", **_forms(fname))
    add(
        "T1.5b.r11w.f4g",
        "5b",
        "R4",
        "r11w",
        alpha_terms=FORM_TERMS["f4"],
        gamma_terms=GAMMA124_TERMS,
    )
    for tag in ("r01", "r10"):
        add(f"T1.5c.{tag}", "5c", "R4", tag, **_forms("f7", with_gamma0=True))

    # item 6: Heisenberg base
    alpha6_1 = ((1, (0, 2), 0),)
    alpha6_2 = ((1, (0, 2), 0), (1, (1, 2), 1))
    for tag in ("r01", "r10"):
        add(f"T1.6a.{tag}", "6a", "h1", tag, alpha_terms=alpha6_1)
    for tag in ("r02", "r20", "r11"):
        add(f"T1.6b.{tag}", "6b", "h1", tag, alpha_terms=alpha6_2)

    # item 7: three dimensional abelian base
    add("T1.7a", "7a", "R3", "none", gamma_terms=((1, (0, 1, 2)),))
    alpha7_2 = ((1, (0, 1), 0), (1, (0, 2), 1))
    alpha7_3 = ((1, (0, 1), 0), (1, (0, 2), 1), (1, (1, 2), 2))
    for tag in ("r02", "r20", "r11"):
        add(f"T1.7b.{tag}", "7b", "R3", tag, alpha_terms=alpha7_2)
    for tag in ("r03", "r21", "r12", "r30"):
        add(f"T1.7c.{tag}", "7c", "R3", tag, alpha_terms=alpha7_3)

    # item 8: plane with a symplectic 2-form into a line
    for tag in ("r01", "r10"):
        add(f"T1.8.{tag}", "8", "R2", tag, alpha_terms=((1, (0, 1), 0),))

    return tuple(entries)


ENTRIES: tuple[CatalogEntry, ...] = _build_entries()

_BY_ID = {entry.id: entry for entry in ENTRIES}
if len(_BY_ID) != len(ENTRIES):
    raise ValueError("duplicate catalog entry ids")


def entry_by_id(entry_id: str) -> CatalogEntry:
    try:
        return _BY_ID[entry_id]
    except KeyError:
        raise KeyError(f"no catalog entry {entry_id!r}") from None


def entries_for_item(item: str) -> tuple[CatalogEntry, ...]:
    return tuple(e for e in ENTRIES if e.item == item)


# ---------------------------------------------------------------------------
# six dimensional sources for ten dimensional doubles
# ---------------------------------------------------------------------------


#: admissible 2-forms on g64 and g65 with values in the split module r22w
G64_ALPHA_TERMS: tuple[AlphaTerm, ...] = (
    (1, (0, 4), 0),
    (-1, (3, 5), 0),
    (1, (2, 4), 1),
    (1, (1, 5), 1),
    (1, (2, 5), 2),
    (1, (0, 5), 3),
)
G65_ALPHA_TERMS: tuple[AlphaTerm, ...] = (
    (1, (0, 4), 0),
    (1, (3, 5), 0),
    (1, (2, 4), 1),
    (1, (1, 5), 1),
    (1, (1, 4), 2),
    (-1, (2, 5), 2),
    (1, (3, 4), 3),
    (-1, (0, 5), 3),
)


def _split_module_cocycle(algebra: LieAlgebra, terms: Sequence[AlphaTerm]) -> QuadraticCocycle:
    module = module_for_tag("r22w")
    alpha = alpha_cochain(terms, algebra.dim, module.dim, {})
    gamma = Cochain.zero(algebra.dim, 3, 1, scalar=True)
    return QuadraticCocycle(algebra, module, alpha, gamma)


def g64_admissible_cocycle() -> QuadraticCocycle:
    """Fixed admissible cocycle on g64 with values in the split module."""
    return _split_module_cocycle(g64(), G64_ALPHA_TERMS)


def g65_admissible_cocycle() -> QuadraticCocycle:
    """Fixed admissible cocycle on g65 with values in the split module."""
    return _split_module_cocycle(g65(), G65_ALPHA_TERMS)


# ---------------------------------------------------------------------------
# catalog runs
# ---------------------------------------------------------------------------


def default_samples() -> dict[str, tuple[Fraction, ...]]:
    """Parameter values substituted into the free families of the catalog."""
    return {
        "s": tuple(
            Fraction(v) for v in ("-2", "-1", "-1/2", "1/2", "1", "2")
        ),
        "r": tuple(Fraction(v) for v in ("1/2", "1", "2")),
    }


class CatalogRow(NamedTuple):
    """Outcome of instantiating and processing one entry at one sample point."""

    entry_id: str
    params: tuple[tuple[str, Fraction], ...]
    cocycle_valid: bool
    admissible: bool | None = None
    proxy_indecomposable: bool | None = None
    double_built: bool | None = None
    fingerprint: Fingerprint | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return bool(
            self.cocycle_valid
            and self.admissible
            and self.double_built
            and self.error is None
        )


class CatalogReport(_Record):
    """Rows of a catalog run and their aggregates.

    ``doubles[i]`` is the metric double that ``rows[i]`` was fingerprinted
    from, or None where none was built.  The doubles stay with the report, so
    a caller that keeps only rows keeps no doubles; they take no part in
    comparing, hashing or printing reports.
    """

    __slots__ = _fields = ("rows", "collisions", "family_splits", "doubles")
    _compared_fields = ("rows", "collisions", "family_splits")
    rows: tuple[CatalogRow, ...]
    collisions: tuple[tuple[tuple, tuple[str, ...]], ...]
    family_splits: tuple[tuple[str, int], ...]
    doubles: tuple[MetricLieAlgebra | None, ...]

    @property
    def all_ok(self) -> bool:
        return all(row.ok for row in self.rows)


def _sample_points(
    entry: CatalogEntry, samples: Mapping[str, Sequence[Fraction]]
) -> list[dict[str, Fraction]]:
    if not entry.params:
        return [{}]
    axes = [[(name, value) for value in samples[name]] for name in entry.params]
    return [dict(point) for point in itertools.product(*axes)]


def _process(
    entry: CatalogEntry, params: Mapping[str, Fraction]
) -> tuple[CatalogRow, MetricLieAlgebra | None]:
    frozen_params = tuple(sorted(params.items()))
    try:
        cocycle = instantiate(entry, params)
    except CocycleError as exc:
        return CatalogRow(entry.id, frozen_params, False, error=str(exc)), None
    admissible = check_admissible(cocycle).overall
    double, error = None, None
    try:
        double = build_double(cocycle)
    except ValueError as exc:
        error = str(exc)
    row = CatalogRow(
        entry.id,
        frozen_params,
        True,
        admissible=admissible,
        proxy_indecomposable=indecomposability_proxy(cocycle),
        double_built=double is not None,
        fingerprint=None if double is None else fingerprint(double),
        error=error,
    )
    return row, double


def run_catalog(
    samples: Mapping[str, Sequence[Fraction]] | None = None,
    entries: Sequence[CatalogEntry] | None = None,
) -> CatalogReport:
    """Process every entry at every sample point and aggregate the outcomes."""
    samples = dict(default_samples() if samples is None else samples)
    chosen = ENTRIES if entries is None else tuple(entries)
    rows: list[CatalogRow] = []
    doubles: list[MetricLieAlgebra | None] = []
    for entry in chosen:
        for point in _sample_points(entry, samples):
            row, double = _process(entry, point)
            rows.append(row)
            doubles.append(double)

    by_fingerprint: dict[tuple, set[str]] = {}
    by_entry: dict[str, set[tuple]] = {}
    for row in rows:
        if row.fingerprint is None:
            continue
        key = row.fingerprint.as_tuple()
        by_fingerprint.setdefault(key, set()).add(row.entry_id)
        by_entry.setdefault(row.entry_id, set()).add(key)

    collisions = tuple(
        (key, tuple(sorted(ids)))
        for key, ids in sorted(by_fingerprint.items(), key=lambda kv: repr(kv[0]))
        if len(ids) > 1
    )
    family_splits = tuple(
        (entry_id, len(keys))
        for entry_id, keys in sorted(by_entry.items())
        if len(keys) > 1
    )
    return CatalogReport(tuple(rows), collisions, family_splits, tuple(doubles))


def report_table(report: CatalogReport) -> str:
    """Plain text summary of a catalog run, one line per row."""
    lines = []
    for row in report.rows:
        point = ",".join(f"{k}={v}" for k, v in row.params) or "-"
        if row.fingerprint is not None:
            fp = row.fingerprint
            tail = f"dim={fp.dim} sig={fp.signature.as_tuple()} lcs={list(fp.series_dims)}"
        else:
            tail = f"error={row.error}"
        status = "ok" if row.ok else "FAIL"
        lines.append(f"{row.entry_id:24s} {point:12s} {status:4s} {tail}")
    lines.append(f"rows={len(report.rows)} collisions={len(report.collisions)}")
    return "\n".join(lines)
