"""What ``gqt`` imports: its public surface, and what each job loads.

Every name a ``gqt`` module imports at module level is used in that module:
deletions tend to leave imports behind, and this catches them
(``from __future__`` imports are directives and are skipped; no module
re-exports a name).  ``import gqt`` loads no submodule, every public name
resolves to the object its one defining module defines, and a CLI job
loads only the modules its subcommand runs, none of them through
``dataclasses``.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gqt

SRC = Path(__file__).resolve().parent.parent / "src" / "gqt"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list:
    """The names bound by module-level imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return [name for name in names if name not in used]


def test_the_check_finds_unused_imports():
    source = ("from __future__ import annotations\nfrom typing import Dict, List\n"
              "import os.path\nimport re as regex\nfrom json import dumps as dumps\n"
              "from json import loads as parse\nx: List[int] = [regex.I]\n")
    assert unused_imports(source) == ["Dict", "os", "dumps", "parse"]


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"bell", "cli", "elements", "errors", "field", "forms",
                                         "geocode", "kernel", "linalg", "nogo", "points",
                                         "protocols"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


# --- the package surface ----------------------------------------------------------

# The public names of ``gqt``, by defining module: kept apart from
# ``gqt._EXPORTS`` so that a name dropped there fails here.
EXPORTED = {
    "errors": "GQTError InvariantError",
    "field": "FieldSpec build_field",
    "elements": "FieldElement theory_coordinates",
    "forms": "HermitianForm standard_form",
    "kernel": "KernelGeometry enumerate_kernel unitary_escapes verify_one_or_all",
    "points": "ProjectivePoint collinear hermitian_curve is_self_orthogonal polar_hyperplane "
              "polar_of_subspace unique_meet",
    "linalg": "FieldMatrix FieldVector is_hermitian_matrix is_unitary random_unitary tensor",
    "nogo": "CloneClassification CloneVerdict clone_obstruction delete_obstruction "
            "f2_orthogonal_special_case permutation_clone_check",
    "protocols": "ProtocolTranscript bell_basis bell_state measure_modal possible_branches "
                 "sdc_decode sdc_encode teleport teleport_char2",
    "geocode": "GeoCiphertext GeoParams agree_parameters geo_decode geo_encode geo_transmit",
}
EXPORTS = [(module, name) for module, names in EXPORTED.items() for name in names.split()]


def test_every_exported_name_is_listed():
    assert len(EXPORTS) == 46
    assert sorted(gqt.__all__) == sorted(name for _, name in EXPORTS)


@pytest.mark.parametrize("module,name", EXPORTS, ids=[name for _, name in EXPORTS])
def test_exported_name_is_its_modules_object(module, name):
    namespace = {}
    exec(f"from gqt import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"gqt.{module}"), name)
    assert namespace[name].__module__ == f"gqt.{module}"
    assert getattr(gqt, name) is namespace[name]
    assert name in gqt.__all__ and name in dir(gqt)


def test_unknown_names_raise_attribute_error():
    for name in ("no_such_name", "dataclass"):
        with pytest.raises(AttributeError, match=name):
            getattr(gqt, name)
    with pytest.raises(ImportError):
        exec("from gqt import no_such_name", {})
    with pytest.raises(AttributeError, match="no_such_name"):
        importlib.import_module("gqt.kernel").no_such_name
    # no module serves another module's public names
    for module, name in (("kernel", "ProjectivePoint"), ("linalg", "standard_form"),
                         ("field", "FieldElement"), ("field", "theory_coordinates")):
        with pytest.raises(AttributeError, match=name):
            getattr(importlib.import_module(f"gqt.{module}"), name)
        with pytest.raises(ImportError):
            exec(f"from gqt.{module} import {name}", {})


# --- what a fresh interpreter loads -------------------------------------------------

# ``gqt.elements``, the object layer of the field, loads in the ``field`` and
# ``theory`` jobs, in the jobs that build vectors, for a ``--modulus``
# argument and to read ``geocode encode``'s state text; the table jobs
# (geometry, scans, the other geocode jobs) never compile it.  The geocode
# jobs run on the index core, ``gqt.bell`` included, and compile no object class.
_BASE = {"gqt", "gqt.cli", "gqt.errors", "gqt.field"}
_ELEMENTS = {"gqt.elements"}
_GEOMETRY = {"gqt.forms", "gqt.kernel"}
_PROTOCOLS = _ELEMENTS | {"gqt.bell", "gqt.forms", "gqt.linalg", "gqt.protocols"}
_NOGO = {"gqt.nogo"}
_GEOCODE = _GEOMETRY | {"gqt.bell", "gqt.geocode"}
JOBS = [
    (["field", "--p", "2", "--element", "t+1"], _BASE | _ELEMENTS),
    (["theory", "--i", "1", "--m", "2", "--pp", "3"], _BASE | _ELEMENTS),
    (["field", "--p", "4"], _BASE | _ELEMENTS),  # a domain error
    (["field", "--p", "3", "--modulus", "1,0,1"], _BASE | _ELEMENTS),
    (["kernel", "enumerate", "--p", "2"], _BASE | _GEOMETRY),
    (["kernel", "enumerate", "--p", "2", "--csv"], _BASE | _GEOMETRY),
    (["verify", "--p", "2", "--seed", "0", "--samples", "1"], _BASE | _GEOMETRY),
    (["teleport", "--p", "3", "--alpha", "1", "--beta", "t", "--seed", "0"], _BASE | _PROTOCOLS),
    (["sdc", "--p", "2", "--message", "01"], _BASE | _PROTOCOLS),
    (["noclone", "scan", "--p", "2"], _BASE | _NOGO),
    (["nodelete", "scan", "--p", "2"], _BASE | _NOGO),
    (["noclone", "scan", "--p", "3", "--modulus", "2,2,1"], _BASE | _NOGO | _ELEMENTS),
    (["geocode", "roundtrip", "--p", "2", "--seed", "1", "--trials", "2"], _BASE | _GEOCODE),
    (["geocode", "encode", "--p", "2", "--seed", "5", "--state", "t;1;1;0"],
     _BASE | _GEOCODE | _ELEMENTS),
    (["geocode", "decode", "--p", "2", "--seed", "5", "--bitstream", "babea7"], _BASE | _GEOCODE),
]

_PROBE = """
import json, sys
{body}
print(json.dumps({{"gqt": sorted(m for m in sys.modules if m == "gqt" or m.startswith("gqt.")),
                  "dataclasses": "dataclasses" in sys.modules}}))
"""


def _fresh(source: str) -> str:
    """What a fresh interpreter with ``gqt`` on its path prints when it runs ``source``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", source], env=env,
                          capture_output=True, text=True, check=True).stdout


def _loaded(body: str) -> dict:
    """The gqt modules a fresh interpreter has loaded after running ``body``."""
    return json.loads(_fresh(_PROBE.format(body=body)).splitlines()[-1])


def test_import_gqt_loads_no_submodule():
    assert _loaded("import gqt") == {"gqt": ["gqt"], "dataclasses": False}
    # a submodule read as an attribute loads on first access, with its imports
    assert _loaded("import gqt\ngqt.nogo.scan")["gqt"] == sorted(_BASE - {"gqt.cli"} | _NOGO)


@pytest.mark.parametrize("argv,modules", JOBS, ids=["-".join(argv) for argv, _ in JOBS])
def test_job_loads_only_its_subcommands_modules(argv, modules, tmp_path):
    out = tmp_path / "report"
    body = f"from gqt.cli import run\nrun({argv + ['--out', str(out)]!r})"
    assert _loaded(body) == {"gqt": sorted(modules), "dataclasses": False}
    assert out.read_text()


# The object API of ``gqt.nogo``, which imports what it needs from ``gqt.linalg`` on use.
_NOGO_OBJECT_CALLS = """
from gqt.field import build_field
from gqt.forms import standard_form
from gqt.linalg import FieldMatrix, FieldVector
from gqt.nogo import clone_obstruction, delete_obstruction, permutation_clone_check
spec = build_field(3, 2)
phi, psi = FieldVector(spec, [1, spec.gen]), FieldVector(spec, [spec.gen, 1])
ident = FieldMatrix(spec, [[int(i == j) for j in range(4)] for i in range(4)])
result = [clone_obstruction(phi, psi).to_json(), delete_obstruction(phi, phi.scale(2)).to_json(),
          permutation_clone_check(ident, [phi], phi, standard_form(spec, 4)),
          permutation_clone_check(ident, [phi, psi], phi)]
"""


def test_nogo_object_api_runs_when_nogo_loads_first():
    out = _fresh("import json, sys\nimport gqt.nogo\nprint('gqt.linalg' in sys.modules)\n"
                 + _NOGO_OBJECT_CALLS + "print(json.dumps(result))")
    linalg_loaded, result = out.splitlines()
    assert linalg_loaded == "False"
    namespace = {}
    exec(_NOGO_OBJECT_CALLS, namespace)
    assert result == json.dumps(namespace["result"])


# The object API of the kernel geometry, ``gqt.points``, which imports
# ``gqt.linalg``; ``KernelGeometry.points`` imports both on first read.
_KERNEL_OBJECT_CALLS = """
from gqt.field import build_field
from gqt.kernel import standard_kernel
from gqt.linalg import FieldVector
from gqt.points import ProjectivePoint, collinear, hermitian_curve, polar_point
spec = build_field(2, 2)
geom = standard_kernel(spec, 4)
x = ProjectivePoint(FieldVector(spec, [1, 0, 0, 0]))
basis = [FieldVector(spec, v) for v in ([0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])]
p, q = geom.points[0], geom.points[1]
result = [[pt.to_json() for pt in geom.points], [pt.to_json() for pt in hermitian_curve(x, geom)],
          polar_point(basis, geom.form).to_json(), x.to_json(), collinear(p, q, geom),
          [collinear(p, r, geom) for r in geom.points]]
"""


def test_kernel_object_api_runs_when_kernel_loads_first():
    # the kernel does not serve the object names, and reading one loads nothing
    out = _fresh("import json, sys\nimport gqt.kernel\n"
                 "print(getattr(gqt.kernel, 'ProjectivePoint', None))\n"
                 "print(sorted(m for m in ('gqt.linalg', 'gqt.points') if m in sys.modules))\n"
                 + _KERNEL_OBJECT_CALLS + "print(json.dumps(result))")
    absent, loaded, result = out.splitlines()
    assert absent == "None" and loaded == "[]"
    namespace = {}
    exec(_KERNEL_OBJECT_CALLS, namespace)
    assert result == json.dumps(namespace["result"])


def test_every_module_is_an_attribute_of_the_package():
    # each module but the front end and the package itself loads on first access
    names = sorted(p.stem for p in MODULES if p.stem not in ("cli", "__init__"))
    body = f"import gqt\nprint(json.dumps([getattr(gqt, n).__name__ for n in {names!r}]))"
    assert json.loads(_fresh("import json\n" + body)) == [f"gqt.{n}" for n in names]


def test_the_form_api_loads_no_object_class():
    loaded = _loaded("from gqt import standard_form\nfrom gqt.field import build_field\n"
                     "standard_form(build_field(3, 2), 4)")["gqt"]
    assert loaded == ["gqt", "gqt.errors", "gqt.field", "gqt.forms"]
    # reading the Gram matrix as an object loads ``gqt.linalg``
    body = "from gqt import standard_form\nfrom gqt.field import build_field\n" \
           "print(standard_form(build_field(3, 2), 2).gram)"
    assert "gqt.linalg" in _loaded(body)["gqt"]
