"""What importing the package builds: the catalog is loaded on first use
only, no import loads ``dataclasses`` or ``inspect`` (the immutable records
are plain ``__slots__`` classes, tests/test_records.py), and the plain
records are read-only tuples with named fields."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import metriclie
from metriclie.catalog import g64_admissible_cocycle
from metriclie.cochain_complex import Isomap
from metriclie.double_construction import (
    Fingerprint,
    MetricCheck,
    MetricReport,
    build_double,
    fingerprint,
)
from metriclie.exact_linalg import Matrix, Signature
from metriclie.lie_core import JacobiReport, abelian
from metriclie.quadratic_cohomology import AdmissibilityReport, ConditionKReport
from metriclie.schema import ParsedMetric

CATALOG_NAMES = (
    "ENTRIES",
    "CatalogEntry",
    "CatalogReport",
    "default_samples",
    "entry_by_id",
    "instantiate",
    "run_catalog",
)

FRESH_PROCESS = """
import sys
import metriclie
import metriclie.cli
assert "metriclie.catalog" not in sys.modules, "import metriclie.cli loaded the catalog"
names = list(metriclie.__all__)
assert set(%r) <= set(names)
assert callable(metriclie.run_catalog)
assert "metriclie.catalog" in sys.modules
from metriclie import ENTRIES
assert ENTRIES is sys.modules["metriclie.catalog"].ENTRIES
star = {}
exec("from metriclie import *", star)
assert set(names) <= set(star)
assert metriclie.__all__ == names
try:
    metriclie.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
print("ok")
""" % (CATALOG_NAMES,)


NOT_LOADED = """
import sys
import %s
loaded = sorted({"dataclasses", "inspect"} & set(sys.modules))
assert not loaded, loaded
print("ok")
"""


def run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports this package; it must print ok."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(metriclie.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


def test_importing_the_cli_leaves_the_catalog_unloaded():
    run_fresh(FRESH_PROCESS)


@pytest.mark.parametrize("module", ["metriclie.cli", "metriclie.catalog"])
def test_importing_loads_neither_dataclasses_nor_inspect(module):
    run_fresh(NOT_LOADED % module)


def test_the_fresh_process_check_sees_a_loaded_module():
    with pytest.raises(AssertionError, match="dataclasses"):
        run_fresh(NOT_LOADED % "dataclasses")


def test_plain_records_are_read_only_named_tuples():
    metric = build_double(g64_admissible_cocycle())
    fp = fingerprint(metric)
    gram = Matrix.identity(2)
    records = [
        Signature(1, 2, 0),
        JacobiReport(True),
        Isomap(gram),
        MetricCheck("invariance", True),
        MetricReport(True, (MetricCheck("invariance", True),)),
        fp,
        ConditionKReport(0, True, True, 2),
        AdmissibilityReport(True, (ConditionKReport(0, True, True, 2),)),
        ParsedMetric(abelian(2), gram),
    ]
    for record in records:
        for position, name in enumerate(record._fields):
            assert getattr(record, name) is record[position]
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = 1
    assert Signature(1, 2, 0).as_tuple() == (1, 2, 0)
    assert Signature(1, 2, 0).dim == 3
    assert isinstance(fp, Fingerprint)
    assert fp.as_tuple() == (
        fp.dim,
        tuple(fp.signature),
        fp.series_dims,
        fp.center_dim,
        tuple(fp.center_signature),
        tuple(fp.derived_signature),
    )
    assert all(type(x) is not Signature for x in fp.as_tuple())
    assert MetricReport(False, (MetricCheck("a", True), MetricCheck("b", False))).failures() == (
        MetricCheck("b", False),
    )
