import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import omatroid
from omatroid import census, cli, errors, exactalg, groundset, jsonio, matroid, plucker
from omatroid.groundset import GroundSet

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize("module", [omatroid, jsonio], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_removed_aliases_are_gone():
    # each duplicated a method or constructor: SkewMatrix.principal,
    # Ring.is_element, Homomorphism.apply, range(1 << n) and SubsetMask
    for name in ("principal_submatrix", "apply_hom_value", "is_element"):
        assert not hasattr(exactalg, name)
        assert name not in omatroid.__all__
    assert not hasattr(GroundSet, "all_masks")
    assert not hasattr(GroundSet, "subset_from_mask")
    # no raise of ScalingError was reachable: the first nonzero coordinate is always a unit
    assert not hasattr(errors, "ScalingError")
    assert not hasattr(omatroid, "ScalingError")
    # one support search, sized by SWEEP_BUDGET, replaced the regular search and the hand-set caps
    for name in ("_regular_normal_reps", "REGULAR_SEARCH_MAX_N", "DEMO_MAX_N", "CENSUS_CAPS",
                 "ENUM_MAX_N", "_refuse_past_enum_cap"):
        assert not hasattr(census, name)
    # one lookup at the least member replaced the twist closure of the supports
    assert not hasattr(census, "_representable_families")
    # the bound chain runs on its certified constants only: no caller passed other bounds
    assert list(inspect.signature(census.verify_nelson_chain).parameters) == ["n"]
    # the enumeration has no parity option: only tests asked for one class
    assert list(inspect.signature(census.enumerate_orthogonal).parameters) == ["n"]
    for name in ("_E_LOWER_CERT", "_LOG2E_LOWER_CERT"):
        assert not hasattr(census, name)
    # one row reduction serves determinants and maximal minors
    for name in ("_det_gauss", "_det_bareiss", "identity_hom", "HOM_IDENTITY"):
        assert not hasattr(exactalg, name)
    assert not hasattr(exactalg.IntegerRing, "divexact")
    # one integer Pfaffian table for every ring; the plain arithmetic and the modulus live on Ring
    assert not hasattr(exactalg, "_expand")
    # every elimination runs on integers: no rows over the field of fractions, no separate
    # Pfaffian eliminator
    for name in ("_field_rows", "_pf_eliminate"):
        assert not hasattr(exactalg, name)
    for cls in (exactalg.IntegerRing, exactalg.RationalField):
        assert not {"add", "sub", "mul", "neg"} & set(vars(cls))
    # QQ values are scaled and written as integers: nothing multiplies through the ring
    for cls in (exactalg.Ring, exactalg.PrimeField):
        assert "mul" not in vars(cls)
    assert not hasattr(exactalg.GF(7), "mul")
    assert exactalg.ZZ.p == exactalg.QQ.p == 0
    assert not hasattr(exactalg.Matrix, "column_submatrix")
    assert not hasattr(plucker._CoordinateVector, "items")
    # helpers that only their own tests called
    for module, name in ((groundset, "sym_diff"), (groundset, "sign_xst"),
                         (groundset, "_require_same_ground"), (groundset, "subsets_of_size"),
                         (matroid, "find_smaller_basis")):
        assert not hasattr(module, name)
    for name in ("sym_diff", "sign_xst", "subsets_of_size", "find_smaller_basis", "identity_hom",
                 "HOM_IDENTITY"):
        assert not hasattr(omatroid, name)
        assert name not in omatroid.__all__
    # the ring names the partial field and the homomorphism: no unit-group or map-kind tags
    for name in ("UNITS_ALL", "UNITS_PM_ONE", "HOM_INT_TO_GFP", "HOM_RAT_TO_GFP"):
        assert not hasattr(exactalg, name)
        assert not hasattr(omatroid, name)
    assert exactalg.Homomorphism.__slots__ == ("source", "target")
    # the ring is the partial field: no wrapper around it, and no ring sum that nothing calls
    for module in (omatroid, exactalg, jsonio):
        for name in ("PartialField", "REGULAR"):
            assert not hasattr(module, name)
    for name in ("PartialField", "REGULAR"):
        assert name not in omatroid.__all__
    for cls in (exactalg.Ring, exactalg.PrimeField):
        assert not {"add", "sub"} & set(vars(cls))
    # the zero-pattern demo counted 2**C(n,2) supports by construction; len() is a subset's size
    for name in ("realizable_sets_demo", "RealizableSetsDemo"):
        assert not hasattr(census, name)
        assert not hasattr(omatroid, name)
        assert name not in omatroid.__all__
    assert not hasattr(groundset.SubsetMask, "size")
    # SWEEP_BUDGET lives in groundset, functools.cache builds the certificate's rows, a value's
    # truth is its nonzeroness, and Matrix.from_rows already builds the subclass
    assert not hasattr(plucker, "SWEEP_BUDGET")
    assert not hasattr(plucker, "_Built")
    assert not hasattr(exactalg.Ring, "is_zero")
    assert "from_rows" not in exactalg.SkewMatrix.__dict__
    # the census counts come from the cached verdict tables, not from a tally of the records
    assert "write" not in inspect.signature(census._census_chunk).parameters


def test_the_package_imports_only_the_standard_library():
    # pyproject.toml declares no runtime dependencies; relative imports stay in the package
    for path in sorted(Path(omatroid.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]  # __future__ is among the standard library's names
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name} imports {name}"


def test_lazy_exports_resolve_list_and_star_import():
    for name in omatroid.__all__:
        getattr(omatroid, name)
    assert set(omatroid.__all__) <= set(dir(omatroid))
    namespace = {}
    exec("from omatroid import *", namespace)
    assert set(omatroid.__all__) <= set(namespace)
    assert namespace["QQ"] is exactalg.QQ and namespace["twist"] is matroid.twist
    assert omatroid.census is census
    with pytest.raises(AttributeError):
        omatroid.no_such_name
    # the CLI's --field choices are the census's fields, without importing the census
    assert cli._VERBS["census"][3]["field"][0] == census.CENSUS_FIELDS


def run_python(tmp_path, *argv):
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=120)


def test_importing_the_package_loads_each_module_on_first_use(tmp_path):
    probe = ("import json, sys, omatroid; loaded = lambda: sorted(m for m in sys.modules if "
             "m.startswith('omatroid.')); before = loaded(); omatroid.census; omatroid.GF; "
             "print(json.dumps([before, loaded()]))")
    before, after = json.loads(run_python(tmp_path, "-c", probe).stdout)
    assert before == []
    assert {"omatroid.census", "omatroid.exactalg"} <= set(after)


def imported(tmp_path, *argv):
    """The modules a Python process run with ``argv`` imports, as -X importtime lists them."""
    proc = run_python(tmp_path, "-X", "importtime", *argv)
    return {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_a_cli_process_loads_only_what_its_verb_uses(tmp_path):
    # each of these cost start-up time in every CLI process; none is needed outside a census
    unused = {"argparse", "gettext", "locale", "copy", "omatroid.census"}
    bare = imported(tmp_path, "-c", "pass")
    assert unused & imported(tmp_path, "-c", "import omatroid.cli") - bare == set()
    vector = tmp_path / "wick.json"
    vector.write_text(json.dumps({"n": 4, "ring": {"kind": "q"},
                                  "coords": {"3": "1", "1,2,3": "-3", "1,3,4": "1", "2,3,4": "6"}}))
    verb = ("-m", "omatroid.cli", "check-wick", str(vector), "--mode", "short")
    assert '"verdict":true' in run_python(tmp_path, *verb).stdout
    assert unused & imported(tmp_path, *verb) - bare == set()
    assert "omatroid.census" in imported(tmp_path, "-m", "omatroid.cli", "census", "--n", "3")
