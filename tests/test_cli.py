import contextlib
import copy
import io
import json
import time
import tracemalloc
from fractions import Fraction
from importlib import resources
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import metriclie
from metriclie import catalog as cat
from metriclie import cli, double_construction, schema
from metriclie.catalog import g41, g64, g64_admissible_cocycle, module_for_tag
from metriclie.cochain_complex import Cochain, OrthogonalModule, cochain_from_terms
from metriclie.double_construction import Fingerprint, build_double, fingerprint
from metriclie.exact_linalg import Matrix, Subspace
from metriclie.lie_core import (
    JacobiError,
    LieAlgebra,
    MathError,
    NotNilpotentError,
)
from metriclie.quadratic_cohomology import (
    CocycleError,
    ConsistencyError,
    QuadraticCocycle,
    check_admissible,
    zero_cocycle,
)
from metriclie.schema import algebra_to_payload, cocycle_to_payload, module_to_payload

from support import alternating_value, dense_combination, rng, sparse_row
from test_golden import golden_commands


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    doc = json.loads(out) if out else None
    return code, doc


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(schema.dumps_document(doc))
    return str(path)


def test_verify_bundled_algebra(capsys):
    code, doc = run(capsys, "verify", "algebras/g64.json")
    assert code == 0
    assert doc["kind"] == "report"
    assert doc["payload"]["ok"] is True
    assert doc["payload"]["nilpotent"] is True
    assert doc["payload"]["series_dims"] == [6, 2, 0]


def test_verify_of_the_zero_algebra_reports_its_one_term_series(tmp_path, capsys):
    # the series of the zero algebra is (l,): l itself is already the zero term
    doc = {"kind": "lie_algebra", "payload": {"dim": 0, "brackets": []}}
    code, out = run(capsys, "verify", write_doc(tmp_path, "zero.json", doc))
    assert code == 0
    assert out["payload"]["nilpotent"] is True
    assert out["payload"]["series_dims"] == [0]


def test_verify_bundled_module(capsys):
    code, doc = run(capsys, "verify", "modules/r22w.json")
    assert code == 0
    assert doc["payload"]["signature"] == [2, 2, 0]


def test_verify_bundled_cocycle_and_double(capsys):
    code, doc = run(capsys, "verify", "cocycles/g64_quad.json")
    assert code == 0
    assert doc["payload"]["algebra_dim"] == 6
    code, doc = run(capsys, "verify", "doubles/r2_plane_double.json")
    assert code == 0
    assert doc["payload"]["fingerprint"]["dim"] == 5


def test_verify_flags_jacobi_failure(tmp_path, capsys):
    doc = schema.wrap(
        "lie_algebra",
        {
            "dim": 3,
            "labels": ["X1", "X2", "X3"],
            "brackets": [
                {"i": 1, "j": 2, "value": ["0", "0", "1"]},
                {"i": 1, "j": 3, "value": ["1", "0", "0"]},
            ],
        },
    )
    code, out = run(capsys, "verify", write_doc(tmp_path, "bad.json", doc))
    assert code == 1
    assert out["payload"]["ok"] is False
    assert "Jacobi" in out["payload"]["error"]


def test_verify_rejects_decimal_scalar(tmp_path, capsys):
    doc = schema.wrap(
        "lie_algebra",
        {
            "dim": 2,
            "labels": ["X1", "X2"],
            "brackets": [{"i": 1, "j": 2, "value": ["0.5", "0"]}],
        },
    )
    code, out = run(capsys, "verify", write_doc(tmp_path, "dec.json", doc))
    assert code == 2
    assert "rational" in out["payload"]["error"]


def test_verify_rejects_conflicting_bracket_orders(tmp_path, capsys):
    doc = schema.wrap(
        "lie_algebra",
        {
            "dim": 3,
            "labels": ["X1", "X2", "Y"],
            "brackets": [
                {"i": 1, "j": 2, "value": ["0", "0", "1"]},
                {"i": 2, "j": 1, "value": ["0", "0", "-1"]},
            ],
        },
    )
    code, _ = run(capsys, "verify", write_doc(tmp_path, "dup.json", doc))
    assert code == 2


def test_verify_missing_document(capsys):
    code, doc = run(capsys, "verify", "no/such/file.json")
    assert code == 2
    assert "cannot find document" in doc["payload"]["error"]


def test_verify_flags_broken_cocycle(tmp_path, capsys):
    from metriclie.cochain_complex import cochain_from_terms, differential
    from itertools import combinations

    base = json.loads(
        (cli.resolve_path("cocycles/g64_quad.json")).read_text()
    )
    algebra = g64()
    offender = next(
        key
        for key in combinations(range(6), 3)
        if not differential(
            algebra, cochain_from_terms(6, 3, 1, [(key, (Fraction(1),))], scalar=True)
        ).is_zero()
    )
    base["payload"]["gamma"].append(
        {"i": offender[0] + 1, "j": offender[1] + 1, "k": offender[2] + 1, "value": "1"}
    )
    code, out = run(capsys, "verify", write_doc(tmp_path, "broken.json", base))
    assert code == 1
    assert "gamma_equation" in out["payload"]["error"]


def _bundled(name):
    return json.loads(cli.resolve_path(name).read_text())


def test_failures_name_basis_labels_not_indices(tmp_path, capsys):
    # the documents number their basis from 1, so a failure names labels
    doc = _bundled("cocycles/g64_quad.json")
    first = doc["payload"]["alpha"][0]
    first["value"] = [str(2 * Fraction(x)) for x in first["value"]]
    path = write_doc(tmp_path, "doubled_alpha.json", doc)
    for command in ("admissible", "double", "verify"):
        code, out = run(capsys, command, path)
        assert code == 1
        assert out["payload"]["error"] == "d_alpha fails at basis tuple (X1, X3, X4)"
    doc = _bundled("doubles/r2_plane_double.json")
    first = doc["payload"]["algebra"]["brackets"][0]
    first["value"] = [str(-Fraction(x)) for x in first["value"]]
    code, out = run(capsys, "verify", write_doc(tmp_path, "flipped.json", doc))
    assert code == 1
    assert out["payload"]["error"] == "invariance: fails at triple (A1, X1, X2)"
    doc["payload"]["algebra"] = {
        "dim": 5,
        "labels": ["P", "Q", "R", "S", "T"],
        "brackets": [
            {"i": 1, "j": 2, "value": ["0", "0", "1", "0", "0"]},
            {"i": 1, "j": 3, "value": ["1", "0", "0", "0", "0"]},
        ],
    }
    code, out = run(capsys, "verify", write_doc(tmp_path, "not_lie.json", doc))
    assert code == 1
    assert out["payload"]["error"] == "jacobi: fails at triple (P, Q, R)"


def test_verify_names_a_jacobi_failure_with_a_defect_too_long_to_print(tmp_path, capsys):
    big = "7" * 2500  # the defect at (X1, X2, X4) is -big^2, about 5,000 digits
    algebra = {
        "dim": 4,
        "brackets": [
            {"i": 1, "j": 2, "value": ["0", "0", big, "0"]},
            {"i": 3, "j": 4, "value": [big, "0", "0", "0"]},
        ],
    }
    gram = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    doc = schema.wrap("metric_lie_algebra", {"algebra": algebra, "gram": gram})
    code, out = run(capsys, "verify", write_doc(tmp_path, "long_defect.json", doc))
    assert code == 1
    assert out["payload"] == {
        "command": "verify",
        "ok": False,
        "error": "jacobi: fails at triple (X1, X2, X4)",
    }


def test_verify_rebuilds_the_double_of_the_provenance(tmp_path, capsys):
    doc = _bundled("doubles/r2_plane_double.json")
    doc["payload"]["algebra"]["labels"] = ["P", "Q", "R", "S", "T"]  # labels are not compared
    code, out = run(capsys, "verify", write_doc(tmp_path, "relabelled.json", doc))
    assert code == 0 and out["payload"]["ok"] is True
    cases = {
        "the double of the cocycle differs from the document": _bundled(
            "cocycles/g41_line_g1.json"
        )["payload"],
        "the algebra of the cocycle is not nilpotent": dict(
            doc["payload"]["provenance"],
            algebra={"dim": 2, "brackets": [{"i": 1, "j": 2, "value": ["1", "0"]}]},
        ),
    }
    for message, provenance in cases.items():
        doc["payload"]["provenance"] = provenance
        code, out = run(capsys, "verify", write_doc(tmp_path, "swapped.json", doc))
        assert code == 1
        assert out["payload"] == {"command": "verify", "ok": False, "error": "provenance: " + message}


def test_every_library_failure_on_an_exit_1_path_is_a_math_error():
    solvable = LieAlgebra(2, {(0, 1): (1, 0)})
    not_closed = cochain_from_terms(4, 2, 1, [((1, 3), (1,))])
    failures = {
        JacobiError: lambda: LieAlgebra(3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)}),
        NotNilpotentError: lambda: build_double(zero_cocycle(solvable, module_for_tag("r01"))),
        CocycleError: lambda: QuadraticCocycle(
            g41(), module_for_tag("r01"), not_closed, Cochain.zero(4, 3, 1, scalar=True)
        ),
        MathError: lambda: OrthogonalModule(Matrix.from_rows([[0, 1], [0, 0]])),
    }
    for error, fail in failures.items():
        with pytest.raises(error) as caught:
            fail()
        assert isinstance(caught.value, MathError), error
    with pytest.raises(MathError, match="module form must be nondegenerate"):
        OrthogonalModule(Matrix.zero(2, 2))
    # an internal inconsistency is not a property of the input
    assert not issubclass(ConsistencyError, MathError)
    assert metriclie.MathError is MathError


def test_a_catalog_row_whose_file_name_is_too_long_leaves_no_file(tmp_path, capsys):
    out_dir = tmp_path / "out"
    samples = "s=1," + "9" * 300  # the row for s = 1 comes first and is fine
    argv = ("catalog", "--entries", "T1.3b.r02.s", "--samples", samples, "--out", str(out_dir))
    code, doc = run(capsys, *argv)
    assert code == 2
    assert doc["payload"]["error"] == (
        "catalog row 1 (T1.3b.r02.s): a file name of 320 bytes is over 255"
    )
    assert list(out_dir.iterdir()) == []


def test_a_term_given_twice_in_any_order_exits_2_naming_both_positions(tmp_path, capsys):
    # Summed, the reversed copy of the first gamma term of g52_two_forms
    # would cancel it, and the reversed alpha copy of r2_plane doubles it.
    cases = []
    for twin in ({"i": 4, "j": 1, "k": 5, "value": "1"}, {"i": 5, "j": 1, "k": 4, "value": "1"}):
        doc = _bundled("cocycles/g52_two_forms.json")
        gamma = doc["payload"]["gamma"]
        assert gamma[0] == {"i": 1, "j": 4, "k": 5, "value": "1"}
        gamma.append(twin)
        message = f"cocycle.gamma[{len(gamma) - 1}]: duplicate term for (1, 4, 5), first given at cocycle.gamma[0]"
        cases.append((doc, message))
    doc = _bundled("cocycles/r2_plane.json")
    alpha = doc["payload"]["alpha"]
    assert alpha == [{"i": 1, "j": 2, "value": ["1"]}]
    alpha.append({"i": 2, "j": 1, "value": ["-1"]})
    cases.append((doc, "cocycle.alpha[1]: duplicate term for (1, 2), first given at cocycle.alpha[0]"))
    for doc, message in cases:
        path = write_doc(tmp_path, "twice.json", doc)
        for command in ("verify", "admissible", "double"):
            code, out = run(capsys, command, path)
            assert code == 2, (command, message)
            assert out["payload"]["error"] == message


def test_provenance_errors_name_their_position(tmp_path, capsys):
    prefix = "metric_lie_algebra.provenance"
    cases = [
        (("alpha", 0, "i"), 9, f"{prefix}.alpha[0].i: index 9 out of range 1..2"),
        (("alpha", 0, "value"), ["0.5"],
         f"{prefix}.alpha[0].value[0]: '0.5' is not an exact rational (use 'p' or 'p/q')"),
        (("alpha", 0, "value"), ["1", "1"], f"{prefix}.alpha[0].value: expected 1 entries, got 2"),
    ]
    for (field, position, key), value, message in cases:
        doc = _bundled("doubles/r2_plane_double.json")
        doc["payload"]["provenance"][field][position][key] = value
        code, out = run(capsys, "verify", write_doc(tmp_path, "provenance.json", doc))
        assert code == 2, message
        assert out["payload"]["error"] == message
    doc["payload"]["provenance"] = None
    code, out = run(capsys, "verify", write_doc(tmp_path, "provenance.json", doc))
    assert code == 2
    assert out["payload"]["error"] == f"{prefix}: expected an object"


def test_admissible_prop_fixture(capsys):
    code, doc = run(capsys, "admissible", "cocycles/g64_quad.json")
    assert code == 0
    payload = doc["payload"]
    assert payload["ok"] is True and payload["admissible"] is True
    assert [c["b_image_dim"] for c in payload["conditions"]] == [4, 4]
    assert payload["proxy_indecomposable"] is True


def test_admissible_reports_witness_for_zero_cocycle(tmp_path, capsys):
    doc = schema.wrap(
        "cocycle",
        {
            "alpha": [],
            "gamma": [],
            "algebra": algebra_to_payload(g41()),
            "module": module_to_payload(module_for_tag("r01")),
        },
    )
    code, out = run(capsys, "admissible", write_doc(tmp_path, "zero.json", doc))
    assert code == 1
    payload = out["payload"]
    assert payload["admissible"] is False
    failing = [c for c in payload["conditions"] if not c["a_passed"]]
    assert failing and failing[-1]["k"] == 2
    assert failing[-1]["a_witness"]["l0"] == ["0", "0", "0", "1"]


def test_a_non_nilpotent_algebra_fails_in_the_library_and_exits_1(tmp_path, capsys):
    # [X1, X2] = X1: the lower central series stops at span(X1)
    z = zero_cocycle(LieAlgebra(2, {(0, 1): (1, 0)}), module_for_tag("r01"))
    with pytest.raises(NotNilpotentError):
        check_admissible(z)
    with pytest.raises(NotNilpotentError):
        build_double(z)
    path = write_doc(tmp_path, "solvable.json", schema.wrap("cocycle", cocycle_to_payload(z)))
    for command in ("admissible", "double"):
        code, doc = run(capsys, command, path)
        assert code == 1
        assert doc["kind"] == "report"
        assert doc["payload"] == {
            "command": command, "ok": False, "error": "algebra is not nilpotent"
        }


def test_admissible_with_context_overrides(capsys):
    code, doc = run(
        capsys,
        "admissible",
        "forms/f1.json",
        "--algebra",
        "algebras/h1r.json",
        "--module",
        "modules/r11w.json",
    )
    assert code == 0
    assert doc["payload"]["admissible"] is True


def test_cocycle_without_context_is_schema_error(capsys):
    code, doc = run(capsys, "admissible", "forms/f1.json")
    assert code == 2
    assert "context" in doc["payload"]["error"]


def test_double_writes_document(tmp_path, capsys):
    out_file = tmp_path / "double.json"
    code, doc = run(capsys, "double", "cocycles/g64_quad.json", "--out", str(out_file))
    assert code == 0
    assert doc["payload"]["fingerprint"]["dim"] == 16
    kind, parsed = schema.loads_document(out_file.read_text())
    assert kind == "metric_lie_algebra"
    assert parsed.algebra.dim == 16
    code, doc = run(capsys, "verify", str(out_file))
    assert code == 0
    assert doc["payload"]["fingerprint"]["signature"] == [8, 8, 0]
    # the fields listed by hand, in the order of Fingerprint._fields
    fp = fingerprint(build_double(g64_admissible_cocycle()))
    assert doc["payload"]["fingerprint"] == {
        "dim": fp.dim,
        "signature": list(fp.signature.as_tuple()),
        "series_dims": list(fp.series_dims),
        "center_dim": fp.center_dim,
        "center_signature": list(fp.center_signature.as_tuple()),
        "derived_signature": list(fp.derived_signature.as_tuple()),
    }
    assert list(doc["payload"]["fingerprint"]) == list(Fingerprint._fields)


def test_double_prints_document_without_out(capsys):
    code, doc = run(capsys, "double", "cocycles/r2_plane.json")
    assert code == 0
    assert doc["kind"] == "metric_lie_algebra"
    assert doc["payload"]["provenance"]["algebra"]["dim"] == 2


def test_cohomology_dimensions(capsys):
    code, doc = run(capsys, "cohomology", "algebras/r5.json", "--degree", "3")
    assert code == 0 and doc["payload"]["dim"] == 10
    code, doc = run(capsys, "cohomology", "algebras/g52.json", "--degree", "3")
    assert code == 0 and doc["payload"]["dim"] == 6
    code, doc = run(
        capsys,
        "cohomology",
        "algebras/h1r.json",
        "--degree",
        "2",
        "--module",
        "modules/r01.json",
    )
    assert code == 0 and doc["payload"]["dim"] == 4
    assert doc["payload"]["coefficients"] == "module"
    code, doc = run(capsys, "cohomology", "algebras/r5.json", "--degree", "-1")
    assert code == 2


def test_cohomology_above_the_dimension_is_zero_without_enumerating(capsys):
    start = time.monotonic()
    code, doc = run(capsys, "cohomology", "algebras/g64.json", "--degree", str(10**12))
    assert time.monotonic() - start < 1.0
    assert code == 0 and doc["payload"]["dim"] == 0


def test_cohomology_with_a_zero_module_is_zero_without_enumerating(tmp_path, capsys):
    # C^p(l, 0) = 0, so no index tuple is walked: at degree 3 the 500-dim
    # abelian algebra has 20.7 million of them, the 20,000-dim one 1.3e12
    zero = write_doc(tmp_path, "m0.json", schema.wrap("module", {"dim": 0, "gram": []}))
    for n in (500, 20_000):
        algebra = write_doc(tmp_path, f"ab{n}.json", schema.wrap("lie_algebra", {"dim": n, "brackets": []}))
        start = time.monotonic()
        code, doc = run(capsys, "cohomology", algebra, "--degree", "3", "--module", zero)
        assert time.monotonic() - start < 1.0, n
        assert code == 0 and doc["payload"]["dim"] == 0, n
        assert doc["payload"]["coefficients"] == "module"


def test_the_cell_count_stops_once_it_passes_the_limit(tmp_path, capsys):
    """Inputs whose exact cell count has thousands of digits (too many to
    print) or takes a minute to multiply out exit 2 with a report at once,
    and the capped binomials agree with math.comb up to the limit."""
    over = cli.MAX_COHOMOLOGY_CELLS + 1
    for n, k in [(n, k) for n in range(41) for k in range(44)] + [(2000, k) for k in range(0, 2001, 7)]:
        assert cli._capped_comb(n, k) == min(comb(n, k), over), (n, k)
    for n, p in ((200_000, 1500), (20_000, 10_000), (2 * 10**6, 10**6)):
        algebra = write_doc(tmp_path, f"ab{n}.json", schema.wrap("lie_algebra", {"dim": n, "brackets": []}))
        start = time.monotonic()
        code, doc = run(capsys, "cohomology", algebra, "--degree", str(p))
        assert time.monotonic() - start < 1.0, (n, p)
        assert code == 2 and doc["kind"] == "report" and doc["payload"]["ok"] is False, (n, p)
        assert doc["payload"]["error"] == (
            f"the differential matrices of degree {p} have more entries than the "
            f"limit MAX_COHOMOLOGY_CELLS = {cli.MAX_COHOMOLOGY_CELLS}"
        )


def test_inputs_over_the_size_limits_exit_2_at_once(tmp_path, capsys):
    big = write_doc(tmp_path, "ab10000.json", schema.wrap("lie_algebra", {"dim": 10_000, "brackets": []}))
    million = write_doc(tmp_path, "ab1e6.json", schema.wrap("lie_algebra", {"dim": 10**6, "brackets": []}))
    wide = write_doc(tmp_path, "ab400.json", schema.wrap("lie_algebra", {"dim": 400, "brackets": []}))
    n = cli.MAX_DIM + 1
    cocycle = write_doc(tmp_path, "zero.json", schema.wrap("cocycle", {
        "alpha": [],
        "gamma": [],
        "algebra": {"dim": n, "brackets": []},
        "module": {"dim": 1, "gram": [["1"]]},
    }))
    identity = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    metric = write_doc(tmp_path, "flat.json", schema.wrap("metric_lie_algebra", {
        "algebra": {"dim": n, "brackets": []},
        "gram": identity,
    }))
    cases = [
        (("verify", big), "MAX_DIM"),
        (("verify", million), "MAX_DIM"),
        (("cohomology", wide, "--degree", "2"), "MAX_COHOMOLOGY_CELLS"),
        (("verify", metric), "MAX_DIM"),
        (("admissible", cocycle), "MAX_DIM"),
        (("double", cocycle), "MAX_DIM"),
    ]
    for argv, limit in cases:
        start = time.monotonic()
        code, doc = run(capsys, *argv)
        assert time.monotonic() - start < 1.0, argv
        assert code == 2, argv
        assert doc["kind"] == "report" and doc["payload"]["ok"] is False
        assert limit in doc["payload"]["error"], argv


def test_a_module_over_max_dim_exits_2_before_its_form_is_eliminated(tmp_path, monkeypatch, capsys):
    """A module of dimension MAX_DIM + 1 is refused before its form is checked,
    as a document, as --module and embedded in a cocycle or in a double's
    provenance, in every command that reads one; one of dimension MAX_DIM is
    accepted.  The forms are dense, so an elimination would show in the time."""
    rg = rng(3434)

    def write_cases(n):
        grid = [[0] * n for _ in range(n)]
        for i in range(n):
            grid[i][i] = rg.randint(1, 9)
            for j in range(i):
                grid[i][j] = grid[j][i] = rg.randint(-9, 9)
        payload = {"dim": n, "gram": [[str(x) for x in row] for row in grid]}
        module = write_doc(tmp_path, f"m{n}.json", schema.wrap("module", payload))
        zero = {"alpha": [], "gamma": [], "algebra": {"dim": 1, "brackets": []}, "module": payload}
        cocycle = write_doc(tmp_path, f"z{n}.json", schema.wrap("cocycle", zero))
        metric = write_doc(tmp_path, f"d{n}.json", schema.wrap("metric_lie_algebra", {
            "algebra": {"dim": 2, "brackets": []}, "gram": [["0", "1"], ["1", "0"]],
            "provenance": zero}))
        form = ("forms/f1.json", "--algebra", "algebras/h1r.json", "--module", module)
        return [("verify", module), ("verify", cocycle), ("admissible", cocycle),
                ("double", cocycle), ("verify", metric), ("verify", *form),
                ("admissible", *form), ("double", *form),
                ("cohomology", "algebras/h1r.json", "--degree", "1", "--module", module)]

    eliminated = []
    orthogonal_module = cli.OrthogonalModule

    def recording(gram):
        eliminated.append(gram.rows)
        return orthogonal_module(gram)

    monkeypatch.setattr(cli, "OrthogonalModule", recording)
    for argv in write_cases(cli.MAX_DIM + 1):
        eliminated.clear()
        start = time.monotonic()
        code, doc = run(capsys, *argv)
        assert time.monotonic() - start < 1.0, argv
        assert (code, eliminated) == (2, []), argv
        assert doc["payload"]["error"] == (
            f"module dimension {cli.MAX_DIM + 1} is over the limit MAX_DIM = {cli.MAX_DIM}")
    code, doc = run(capsys, *write_cases(cli.MAX_DIM)[0])
    assert code == 0 and doc["payload"]["dim"] == cli.MAX_DIM


def test_a_million_dimensions_load_without_per_dimension_storage(tmp_path, capsys):
    # The algebra keeps rows only for indices with a bracket and makes its
    # default labels on demand, so a 60-byte document stays 60 bytes of work.
    million = write_doc(tmp_path, "ab1e6.json", schema.wrap("lie_algebra", {"dim": 10**6, "brackets": []}))
    for argv, expected in ((("verify", million), 2), (("cohomology", million, "--degree", "0"), 0)):
        tracemalloc.start()
        try:
            code = cli.main(list(argv))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        doc = json.loads(capsys.readouterr().out)
        assert peak < 5_000_000, argv
        assert code == expected, argv
        if expected == 0:
            assert doc["payload"]["dim"] == 1


def test_bundled_documents_and_golden_commands_are_within_the_limits():
    # with a margin of 2 on the dimension and of 100 on the cells
    for argv in golden_commands():
        if argv[0] == "catalog":
            continue
        kind, parsed = cli.load_document(argv[1])
        if kind == "cocycle":
            algebra = schema.cocycle_context(parsed)[0]
        else:
            algebra = parsed if kind == "lie_algebra" else getattr(parsed, "algebra", None)
        assert algebra is None or 2 * algebra.dim <= cli.MAX_DIM, argv
        if argv[0] == "cohomology":
            n, p = algebra.dim, int(argv[3])
            cells = sum(comb(n, q) * comb(n, q + 1) for q in (p - 1, p) if q >= 0)
            assert 100 * cells <= cli.MAX_COHOMOLOGY_CELLS, argv


def test_module_document_with_action_key_is_schema_error(tmp_path, capsys):
    zero = [["0", "0"], ["0", "0"]]
    module = schema.wrap(
        "module", {"dim": 2, "gram": [["0", "1"], ["1", "0"]], "action": [zero] * 4}
    )
    path = write_doc(tmp_path, "acting.json", module)
    for argv in (
        ("verify", path),
        ("admissible", "forms/f1.json", "--algebra", "algebras/h1r.json", "--module", path),
        ("cohomology", "algebras/h1r.json", "--degree", "2", "--module", path),
    ):
        code, doc = run(capsys, *argv)
        assert code == 2, argv
        assert doc["kind"] == "report"
        assert "action" in doc["payload"]["error"]


def test_catalog_subset(capsys):
    code, doc = run(capsys, "catalog", "--entries", "T1.8")
    assert code == 0
    payload = doc["payload"]
    assert payload["ok"] is True
    assert len(payload["rows"]) == 2
    assert all(row["double_built"] for row in payload["rows"])


def test_catalog_unknown_prefix(capsys):
    code, doc = run(capsys, "catalog", "--entries", "T9")
    assert code == 2


def test_catalog_sample_overrides(capsys):
    code, doc = run(
        capsys, "catalog", "--entries", "T1.3b", "--samples", "s=1;r=2"
    )
    assert code == 0
    assert len(doc["payload"]["rows"]) == 4
    for bad in ("r=0", "r=-1", "s=abc", "q=1", "s="):
        code, doc = run(capsys, "catalog", "--entries", "T1.8", "--samples", bad)
        assert code == 2, bad


def test_catalog_table_output(capsys):
    code = cli.main(["catalog", "--entries", "T1.8", "--table"])
    out = capsys.readouterr().out
    assert code == 0
    assert "T1.8.r01" in out and "T1.8.r10" in out


def test_catalog_out_directory(tmp_path, capsys):
    out_dir = tmp_path / "doubles"
    code, _ = run(capsys, "catalog", "--entries", "T1.8", "--out", str(out_dir))
    assert code == 0
    files = sorted(out_dir.glob("*.json"))
    assert len(files) == 2
    for path in files:
        kind, parsed = schema.loads_document(path.read_text())
        assert kind == "metric_lie_algebra"
        assert parsed.provenance is not None


def test_schema_guards_name_the_position_of_the_bad_field(tmp_path, capsys):
    """Guards of ``schema`` that the bundled documents and the golden commands
    never reach: each exits 2 and names the JSON position it refuses."""
    algebra = {"dim": 3, "brackets": [{"i": 1, "j": 2, "value": ["0", "0", "1"]}]}
    cases = [
        (schema.wrap("lie_algebra", {"dim": 2, "brackets": {}}),
         "lie_algebra.brackets: expected a list"),
        (schema.wrap("module", {"dim": -1, "gram": []}),
         "module.dim: expected a nonnegative integer"),
        (schema.wrap("module", {"dim": True, "gram": [["1"]]}),
         "module.dim: expected a nonnegative integer"),
        (schema.wrap("metric_lie_algebra", {"algebra": algebra, "gram": [["0", "1"], ["1", "0"]]}),
         "metric_lie_algebra.gram: expected 3x3"),
    ]
    for doc, message in cases:
        code, out = run(capsys, "verify", write_doc(tmp_path, "guard.json", doc))
        assert (code, out["payload"]["error"]) == (2, message)


def test_a_catalog_entry_that_breaks_the_gamma_equation_is_an_error_row(monkeypatch, capsys):
    """``catalog._process`` turns the ``CocycleError`` of an entry whose gamma
    breaks d gamma = 1/2 <alpha ^ alpha> into a row with its message, which the
    table prints as ``error=`` and the report as the row's ``error``, exit 1."""
    broken = cat.CatalogEntry("T9.broken", "9", "g52", "none", gamma_terms=((1, (1, 3, 4)),))
    message = "gamma_equation fails at basis tuple (X1, X2, X3, Y)"
    rep = cat.run_catalog(entries=[broken])
    assert rep.rows == (cat.CatalogRow("T9.broken", (), False, error=message),)
    assert rep.doubles == (None,) and not rep.all_ok
    assert cat.report_table(rep).splitlines() == [
        f"{'T9.broken':24s} {'-':12s} FAIL error={message}",
        "rows=1 collisions=0",
    ]
    monkeypatch.setattr(cat, "ENTRIES", (broken,))
    code, doc = run(capsys, "catalog")
    assert code == 1 and doc["payload"]["ok"] is False
    assert doc["payload"]["rows"] == [{
        "entry": "T9.broken", "params": {}, "cocycle_valid": False, "admissible": None,
        "proxy_indecomposable": None, "double_built": None, "error": message,
    }]


def test_verify_on_a_file_that_is_not_utf8_is_schema_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"kind": "module", "version": "caf\u00e9"}'.encode("latin-1"))
    code, doc = run(capsys, "verify", str(path))
    assert code == 2
    assert doc["kind"] == "report" and doc["payload"]["ok"] is False
    assert "not UTF-8" in doc["payload"]["error"]


def _verify_text(tmp_path, capsys, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, doc = run(capsys, "verify", str(path))
    assert code == 2
    assert doc["kind"] == "report" and doc["payload"]["ok"] is False
    return doc["payload"]["error"]


def test_deeply_nested_json_is_schema_error(tmp_path, capsys):
    assert _verify_text(tmp_path, capsys, "[" * 200_000) == "invalid JSON: nested too deeply"


def test_an_integer_literal_over_the_digit_limit_is_schema_error(tmp_path, capsys):
    text = '{"kind": "lie_algebra", "payload": {"dim": %s, "brackets": []}}' % ("9" * 5000)
    error = _verify_text(tmp_path, capsys, text)
    assert error == "invalid JSON: an integer literal has too many digits"


def test_a_scalar_over_the_digit_limit_is_schema_error_at_its_position(tmp_path, capsys):
    doc = schema.wrap("module", {"dim": 1, "gram": [["9" * 5000]]})
    error = _verify_text(tmp_path, capsys, schema.dumps_document(doc))
    assert error == "module.gram[0][0]: a scalar of 5000 characters is too long"


def test_a_double_coefficient_over_the_digit_limit_is_schema_error(tmp_path, capsys):
    # alpha(X1, X2) and the module form each read in; the double multiplies them
    big = "7" * 3000
    cocycle = {
        "algebra": {"dim": 2, "brackets": []},
        "module": {"dim": 1, "gram": [[big]]},
        "alpha": [{"i": 1, "j": 2, "value": [big]}],
        "gamma": [],
    }
    path = write_doc(tmp_path, "big.json", schema.wrap("cocycle", cocycle))
    for command in ("verify", "admissible"):
        assert run(capsys, command, path)[0] == 0
    out = tmp_path / "double.json"
    for extra in ((), ("--out", str(out))):
        code, doc = run(capsys, "double", path, *extra)
        assert code == 2
        assert doc["payload"] == {
            "command": "double",
            "ok": False,
            "error": "a scalar with 6000 digits is too long to write",
        }
    assert not out.exists()


def test_catalog_with_a_sample_at_the_digit_limit_writes_its_report(tmp_path, capsys):
    # the catalog's doubles are linear in the samples, so none of their
    # coefficients pass the limit; the file name of such a row is too long
    samples = "s=1," + "9" * 4300
    code, doc = run(capsys, "catalog", "--entries", "T1.3b.r02.s", "--samples", samples)
    assert code == 0 and len(doc["payload"]["rows"]) == 2
    out_dir = tmp_path / "out"
    argv = ("catalog", "--entries", "T1.3b.r02.s", "--samples", samples, "--out", str(out_dir))
    code, doc = run(capsys, *argv)
    assert code == 2 and doc["payload"]["command"] == "catalog" and doc["payload"]["ok"] is False


def test_double_into_a_missing_directory_is_schema_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    code, doc = run(capsys, "double", "cocycles/g64_quad.json", "--out", str(out))
    assert code == 2
    assert doc["payload"]["command"] == "double" and doc["payload"]["ok"] is False
    assert str(out) in doc["payload"]["error"]
    assert not out.parent.exists()


def test_catalog_out_onto_an_existing_file_is_schema_error(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("keep")
    code, doc = run(capsys, "catalog", "--entries", "T1.8.r01", "--out", str(target))
    assert code == 2
    assert doc["payload"]["command"] == "catalog" and doc["payload"]["ok"] is False
    assert target.read_text() == "keep"


def test_data_dir_override(tmp_path, monkeypatch, capsys):
    source = cli.resolve_path("algebras/g41.json").read_text()
    (tmp_path / "myalg.json").write_text(source)
    monkeypatch.setenv(cli.DATA_ENV, str(tmp_path))
    code, doc = run(capsys, "verify", "myalg.json")
    assert code == 0
    assert doc["payload"]["series_dims"] == [4, 2, 1, 0]


def test_catalog_out_reuses_the_catalog_doubles(tmp_path, monkeypatch, capsys):
    built = []

    def counting_build(cocycle):
        built.append(cocycle)
        return build_double(cocycle)

    monkeypatch.setattr(cat, "build_double", counting_build)
    monkeypatch.setattr(double_construction, "build_double", counting_build)
    out_dir = tmp_path / "doubles"
    code, doc = run(capsys, "catalog", "--entries", "T1.3b.r02", "--out", str(out_dir))
    assert code == 0
    rows = doc["payload"]["rows"]
    assert len(built) == len(rows) == 9
    files = sorted(out_dir.glob("*.json"))
    assert len(files) == len(rows)
    # Byte for byte what a fresh instantiate-and-build of each row writes.
    chosen = [e for e in cat.ENTRIES if e.id.startswith("T1.3b.r02")]
    for row in cat.run_catalog(entries=chosen).rows:
        fresh = build_double(cat.instantiate(cat.entry_by_id(row.entry_id), dict(row.params)))
        expected = schema.dumps_document(
            schema.wrap("metric_lie_algebra", schema.metric_to_payload(fresh))
        )
        assert (out_dir / cli._row_filename(row)).read_text() == expected


def test_admissible_reports_b_witness_from_the_rejection_study(rejection_study, tmp_path, capsys):
    # the first (B_k) failure of the criterion-4 study
    z, rep = next(
        (z, rep)
        for z, rep in ((z, check_admissible(z)) for z in rejection_study.cocycles)
        if not all(c.b_passed for c in rep.conditions)
    )
    doc = schema.wrap("cocycle", schema.cocycle_to_payload(z))
    code, out = run(capsys, "admissible", write_doc(tmp_path, "rejected.json", doc))
    assert code == 1
    payload = out["payload"]
    assert payload["admissible"] is False
    for cond, got in zip(rep.conditions, payload["conditions"]):
        assert got["b_passed"] is cond.b_passed
        if cond.b_passed:
            assert "b_witness" not in got
        else:
            assert got["b_witness"] == [
                [schema.format_vector(row) for row in tensor] for tensor in cond.b_witness
            ]
            assert got["b_witness"]


def test_a_b_witness_keeps_a_basis_of_the_image_among_the_kernel_tensors(tmp_path, capsys):
    """alpha(X1, X2) = A1 on the 32-dim abelian algebra, module r11w: all
    32 * 32 tensors are in the kernel of the bracket pairing, and their image
    is the null line of A1.  The witness keeps the tensors, in kernel order,
    whose images are independent, so the report stays small."""
    n, module = 32, module_for_tag("r11w")
    alpha = Cochain(n, 2, 2, False, {(0, 1): (1, 0)})
    z = QuadraticCocycle(LieAlgebra(n, {}), module, alpha, Cochain.zero(n, 3, 1, True))
    doc = schema.wrap("cocycle", schema.cocycle_to_payload(z))
    code = cli.main(["admissible", write_doc(tmp_path, "abelian32.json", doc)])
    text = capsys.readouterr().out
    assert code == 1 and len(text.encode()) < 1_000_000
    (got,) = json.loads(text)["payload"]["conditions"]
    (cond,) = check_admissible(z).conditions
    assert got["b_passed"] is cond.b_passed is False and got["b_image_dim"] == 1
    assert got["b_witness"] == [
        [schema.format_vector(row) for row in tensor] for tensor in cond.b_witness
    ]
    # l^1 = l, so tensor entry (i, j) is the coefficient of e_i (x) e_j
    images = [
        dense_combination(
            {(i, j): c for i, row in enumerate(tensor) for j, c in enumerate(row) if c},
            lambda ij: alternating_value(alpha, ij), module.dim,
        )
        for tensor in cond.b_witness
    ]
    span = Subspace.of_rows(module.dim, [sparse_row(v) for v in images])
    assert 1 <= len(images) <= module.dim and span.dim == len(images) == cond.b_image_dim
    assert not span.is_nondegenerate(module.gram)


# ---------------------------------------------------------------------------
# totality: any document ends in exit 0, 1 or 2 with a report
# ---------------------------------------------------------------------------

_DATA = resources.files("metriclie") / "data"
_FIXTURES = sorted(
    f"{folder.name}/{p.name}"
    for folder in _DATA.iterdir()
    if folder.is_dir()
    for p in folder.iterdir()
    if p.name.endswith(".json")
)
_ALGEBRAS = [name for name in _FIXTURES if name.startswith("algebras/")]
_MODULES = [name for name in _FIXTURES if name.startswith("modules/")]

# Integers stay small or sit at the size limits.  A dimension in the billions
# is left to a check by hand: a regression there would exhaust memory.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.sampled_from([cli.MAX_DIM, cli.MAX_DIM + 1, 10_000]),
    st.sampled_from(["0", "1", "-1", "1/2", "-3/4", "2/0", "1.5", "1e3", "", "x"]),
    st.text(max_size=6),
)
_keys = st.one_of(
    st.sampled_from(
        ["kind", "payload", "dim", "labels", "brackets", "i", "j", "value", "gram",
         "alpha", "gamma", "algebra", "module", "provenance", "action"]
    ),
    st.text(max_size=5),
)
_json = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_keys, children, max_size=5),
    max_leaves=24,
)
_documents = st.one_of(
    _json,
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["lie_algebra", "module", "cocycle", "metric_lie_algebra", "report"]),
         "payload": _json}
    ),
)


def _spots(node):
    """Every (container, key) below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in list(items):
        yield node, key
        yield from _spots(child)


def _is_term(node):
    return isinstance(node, dict) and "i" in node and "j" in node


def _mutate(data, doc):
    for _ in range(data.draw(st.integers(0, 2))):
        spots = list(_spots(doc))
        if not spots:
            return data.draw(_json)
        container, key = data.draw(st.sampled_from(spots))
        action = data.draw(st.sampled_from(["replace", "delete", "copy", "nudge", "reverse"]))
        value = container[key]
        if action == "reverse":
            # append a copy of a term with its first two indices swapped
            terms = [(c, k) for c, k in spots if isinstance(c, list) and _is_term(c[k])]
            if terms:
                container, key = data.draw(st.sampled_from(terms))
                term = container[key]
                container.append({**term, "i": term["j"], "j": term["i"]})
        elif action == "delete":
            del container[key]
        elif action == "copy":
            other, other_key = data.draw(st.sampled_from(spots))
            container[key] = copy.deepcopy(other[other_key])
        elif action == "nudge" and isinstance(value, int) and not isinstance(value, bool):
            container[key] = value + data.draw(st.sampled_from([-1, 1, cli.MAX_DIM]))
        else:
            container[key] = data.draw(_json)
    return doc


_COMMANDS = ("verify", "admissible", "double", "cohomology")
# the commands that accept an intact document of each folder
_FITTING = {
    "algebras": ("verify", "cohomology"),
    "catalog": ("verify", "admissible", "double"),
    "cocycles": ("verify", "admissible", "double"),
    "doubles": ("verify",),
    "forms": ("admissible", "double"),
    "modules": ("verify",),
}


def _run_command(data, out_dir, path, folder=None):
    fitting = _FITTING.get(folder, _COMMANDS)
    command = data.draw(st.sampled_from(fitting) | st.sampled_from(_COMMANDS))
    argv = [command, path]
    if command == "cohomology":
        argv += ["--degree", str(data.draw(st.integers(-1, 4)))]
    elif data.draw(st.booleans()):
        argv += ["--algebra", data.draw(st.sampled_from(_ALGEBRAS))]
    if command != "verify" and data.draw(st.booleans()):
        argv += ["--module", data.draw(st.sampled_from(_MODULES))]
    if command == "double":
        argv += ["--out", str(out_dir / "double.json")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code in (0, 1, 2), argv
    doc = json.loads(out.getvalue())
    assert doc["kind"] == "report", argv
    assert doc["payload"]["command"] == command, argv


def _write(out_dir, doc):
    path = out_dir / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


_fuzz = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@_fuzz
@given(data=st.data(), name=st.sampled_from(_FIXTURES))
def test_cli_is_total_on_mutated_fixtures(tmp_path_factory, data, name):
    out_dir = tmp_path_factory.mktemp("mutated")
    doc = _mutate(data, json.loads((_DATA / name).read_text()))
    _run_command(data, out_dir, _write(out_dir, doc), name.split("/")[0])


@_fuzz
@given(data=st.data(), doc=st.one_of(_documents, st.text(max_size=40)))
def test_cli_is_total_on_arbitrary_json(tmp_path_factory, data, doc):
    out_dir = tmp_path_factory.mktemp("arbitrary")
    _run_command(data, out_dir, _write(out_dir, doc))
