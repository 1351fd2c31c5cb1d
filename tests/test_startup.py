"""What importing the package and running a command load: ``import
metriclie`` loads no submodule and each public name loads its own module on
first use, each command of the CLI loads only the modules it runs, no import
loads ``dataclasses`` or ``inspect`` (the immutable records are plain
``__slots__`` classes, tests/test_records.py), and the plain records are
read-only tuples with named fields."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metriclie
from metriclie import lie_core, quadratic_cohomology
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

PACKAGE = Path(metriclie.__file__).parent
MODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
COHOMOLOGY = {"exact_linalg", "lie_core", "cochain_complex", "schema"}
# The CLI runs as ``__main__``, as under ``python -m``, never as ``metriclie.cli``.
COMMANDS = {
    "cohomology": (["cohomology", "algebras/g64.json", "--degree", "3"], COHOMOLOGY),
    "admissible": (
        ["admissible", "cocycles/g64_quad.json"], COHOMOLOGY | {"quadratic_cohomology"}
    ),
    "verify": (["verify", "doubles/r5_double.json"], MODULES - {"catalog", "cli"}),
}

FRESH_PROCESS = """
import sys
import metriclie
assert metriclie.Matrix is sys.modules["metriclie.exact_linalg"].Matrix
assert "Matrix" in vars(metriclie)
loaded = sorted(m for m in sys.modules if m.startswith("metriclie."))
assert loaded == ["metriclie.exact_linalg"], loaded
assert metriclie.lie_core is sys.modules["metriclie.lie_core"]
star = {}
exec("from metriclie import *", star)
assert set(metriclie.__all__) <= set(star)
print("ok")
"""


LOADED_AT_EXIT = """\
import atexit, runpy, sys
atexit.register(lambda: print(
    *sorted(m.partition(".")[2] for m in sys.modules if m.startswith("metriclie.")),
    file=sys.stderr,
))
"""

NOT_LOADED = """
import sys
import %s
loaded = sorted({"dataclasses", "inspect"} & set(sys.modules))
assert not loaded, loaded
print("ok")
"""


def fresh_env(src: Path) -> dict:
    """The environment of a fresh interpreter that imports the package from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports this package; it must print ok."""
    done = subprocess.run(
        [sys.executable, "-c", code], env=fresh_env(PACKAGE.parent), capture_output=True,
        text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


def loaded_modules(statement: str, src: Path = PACKAGE.parent) -> set[str]:
    """The package modules loaded in a fresh ``python -W error`` process that
    runs ``statement``, as ``sys.modules`` holds them at exit."""
    code = LOADED_AT_EXIT + statement
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], env=fresh_env(src),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stderr.splitlines()[-1].split())


def run_cli(argv: list[str]) -> str:
    """A statement that runs the CLI on ``argv`` as ``python -m metriclie.cli`` does."""
    return "sys.argv = %r\nrunpy.run_module(%r, run_name='__main__', alter_sys=True)" % (
        ["metriclie", *argv], "metriclie.cli"
    )


def test_importing_the_package_loads_each_module_on_first_use():
    run_fresh(FRESH_PROCESS)


def test_importing_a_module_loads_only_what_it_runs():
    assert loaded_modules("import metriclie") == set()
    assert loaded_modules("import metriclie.lie_core") == {"exact_linalg", "lie_core"}


def test_importing_the_cli_leaves_the_catalog_unloaded():
    assert loaded_modules("import metriclie.cli") == COHOMOLOGY | {"cli"}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_loads_only_the_modules_it_runs(command):
    argv, modules = COMMANDS[command]
    assert loaded_modules(run_cli(argv)) == modules


def test_the_load_check_sees_an_eager_import_in_the_cli(tmp_path):
    shutil.copytree(PACKAGE, tmp_path / "metriclie")
    cli = tmp_path / "metriclie" / "cli.py"
    cli.write_text(cli.read_text().replace(
        "from . import schema\n", "from . import double_construction, schema\n", 1
    ))
    argv, modules = COMMANDS["cohomology"]
    loaded = loaded_modules(run_cli(argv), tmp_path)
    assert loaded == modules | {"double_construction"}


def test_every_public_name_is_its_home_module_object():
    assert metriclie.__all__ == sorted(metriclie._HOME)
    listed = dir(metriclie)
    for name in metriclie.__all__:
        home = getattr(metriclie, metriclie._HOME[name])
        value = getattr(metriclie, name)
        assert value is getattr(home, name) and name in listed
        assert getattr(value, "__module__", home.__name__) == home.__name__
    with pytest.raises(AttributeError, match="no_such_name"):
        metriclie.no_such_name
    assert quadratic_cohomology.ConsistencyError is lie_core.ConsistencyError
    assert metriclie.ConsistencyError is lie_core.ConsistencyError


@pytest.mark.parametrize("module", ["metriclie.cli", "metriclie.catalog"])
def test_importing_loads_neither_dataclasses_nor_inspect(module):
    run_fresh(NOT_LOADED % module)


def test_the_fresh_process_check_sees_a_loaded_module():
    with pytest.raises(AssertionError, match="dataclasses"):
        run_fresh(NOT_LOADED % "dataclasses")


def test_the_readme_quick_start_prints_its_comments():
    """The README's quick-start block, run as it stands in a fresh
    ``python -W error`` process that imports the package from ``src``,
    prints the values its ``print`` lines name in their comments."""
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.rsplit("# ", 1)[1].strip() for line in block.splitlines()
                if line.startswith("print(")]
    assert expected == ["True", "[4, 4]", "Signature(neg=8, pos=8, null=0)"]
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", block], env=fresh_env(PACKAGE.parent),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == expected


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
