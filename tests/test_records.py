"""The contract every frozen record class keeps, whatever defines it.

Each record takes its fields positionally or by keyword, with trailing
defaults; compares equal only to an instance of its own class with equal
fields; hashes as the tuple of its fields; prints as ``Name(field=value,
...)`` unless it defines its own repr; and refuses assignment and deletion.
Error messages embed these reprs, so they are pinned byte for byte.
"""

import copy
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from omatroid.census import BoundCheck, CensusReport
from omatroid.errors import InputError
from omatroid.exactalg import GF, QQ, ZZ, Homomorphism, Matrix, SkewMatrix
from omatroid.groundset import GroundSet, SubsetMask
from omatroid.matroid import BasisFamily
from omatroid.plucker import GPVerdict, PluckerClassification, PluckerVector
from omatroid.verdicts import AxiomVerdict, Label
from omatroid.wick import WickClassification, WickPairVerdict, WickRepresentation, WickVector

G3 = GroundSet(3)
G2 = GroundSet(2)
F7 = GF(7)
S13 = SubsetMask(G3, 0b101)
PASS_GP = GPVerdict(True)
PASS_WICK = WickPairVerdict(True)
PASS_AXIOM = AxiomVerdict(True)

# (record, its field names in order, its repr, whether instances must have no __dict__)
CASES = [
    (G3, ("n",), "GroundSet(n=3)", True),
    (S13, ("ground", "bits"), "{1,3}/3", True),
    (Matrix(QQ, 1, 2, (1, Fraction(1, 2))), ("ring", "rows", "cols", "entries"),
     "Matrix(q, 1x2)", False),
    (SkewMatrix(ZZ, 2, 2, (0, 1, -1, 0)), ("ring", "rows", "cols", "entries"),
     "Matrix(z, 2x2)", False),
    (Homomorphism(ZZ, F7), ("source", "target"), "Homomorphism(source=z, target=gf(7))", True),
    (AxiomVerdict(False, "exchange", S13, SubsetMask(G3, 0b011), 2),
     ("ok", "reason", "b1", "b2", "x"),
     "AxiomVerdict(ok=False, reason='exchange', b1={1,3}/3, b2={1,2}/3, x=2)", True),
    (BasisFamily(G3, frozenset({3, 5})), ("ground", "masks"),
     "BasisFamily(ground=GroundSet(n=3), masks=frozenset({3, 5}))", False),
    (PluckerVector(G3, 1, F7, (2, 4, 6)), ("ground", "r", "ring", "coords"),
     "PluckerVector(ground=GroundSet(n=3), r=1, ring=gf(7), coords=(1, 2, 3))", False),
    (GPVerdict(False, S13, S13, 3), ("ok", "s", "t", "value"),
     "GPVerdict(ok=False, s={1,3}/3, t={1,3}/3, value=3)", True),
    (PluckerClassification(Label.WEAK, PASS_GP, GPVerdict(False, S13, S13, 3), PASS_AXIOM),
     ("label", "full", "short", "support"),
     "PluckerClassification(label=<Label.WEAK: 'weak'>, "
     "full=GPVerdict(ok=True, s=None, t=None, value=None), "
     "short=GPVerdict(ok=False, s={1,3}/3, t={1,3}/3, value=3), "
     "support=AxiomVerdict(ok=True, reason=None, b1=None, b2=None, x=None))", True),
    (WickVector(G2, F7, (0, 3, 0, 6)), ("ground", "ring", "coords"),
     "WickVector(ground=GroundSet(n=2), ring=gf(7), coords=(0, 1, 0, 2))", False),
    (WickRepresentation(SkewMatrix(GF(7), 2, 2, (0, 1, 6, 0)), SubsetMask(G2, 1)),
     ("matrix", "twist"), "WickRepresentation(matrix=Matrix(gf(7), 2x2), twist={1}/2)", False),
    (WickPairVerdict(False, S13, S13, 5), ("ok", "j1", "j2", "value"),
     "WickPairVerdict(ok=False, j1={1,3}/3, j2={1,3}/3, value=5)", True),
    (WickClassification(Label.STRONG, PASS_WICK, PASS_WICK, PASS_AXIOM),
     ("label", "full", "short", "support"),
     "WickClassification(label=<Label.STRONG: 'strong'>, "
     "full=WickPairVerdict(ok=True, j1=None, j2=None, value=None), "
     "short=WickPairVerdict(ok=True, j1=None, j2=None, value=None), "
     "support=AxiomVerdict(ok=True, reason=None, b1=None, b2=None, x=None))", True),
    (CensusReport(3, "gf2", 10, 4, 2, {"gf2": 4}, 0.5, ("a", "b")),
     ("n", "field", "total_families_checked", "orthogonal_count", "matroid_count",
      "representable_counts", "runtime_seconds", "notes"),
     "CensusReport(n=3, field='gf2', total_families_checked=10, orthogonal_count=4, "
     "matroid_count=2, representable_counts={'gf2': 4}, runtime_seconds=0.5, "
     "notes=('a', 'b'))", False),
    (BoundCheck(5, 1, 2, 3, 4, 6, Fraction(1, 3), True, (("step", True),), {"k": 1}),
     ("n", "c", "d", "N", "m", "r", "lhs_upper_bound", "verdict", "steps", "context"),
     "BoundCheck(n=5, c=1, d=2, N=3, m=4, r=6, lhs_upper_bound=Fraction(1, 3), "
     "verdict=True, steps=(('step', True),), context={'k': 1})", False),
]
IDS = [type(case[0]).__name__ for case in CASES]
UNHASHABLE = (CensusReport, BoundCheck)  # a dict field, as the records hold them


def test_a_verdict_is_true_exactly_when_it_is_ok():
    for cls in (AxiomVerdict, GPVerdict, WickPairVerdict):
        for ok in (True, False):
            assert bool(cls(ok)) is ok
    assert str(Label.WEAK) == "weak"


@pytest.mark.parametrize("rec, names, text, slotted", CASES, ids=IDS)
def test_record_construction_equality_and_repr(rec, names, text, slotted):
    cls = type(rec)
    values = tuple(getattr(rec, name) for name in names)
    by_keyword = cls(**dict(zip(names, values)))
    assert by_keyword == rec and cls(*values) == rec
    assert not by_keyword != rec
    assert repr(rec) == text
    assert copy.copy(rec) == rec
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(values) == hash(by_keyword)
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError):
        cls(values[0], **{names[0]: values[0]}, **dict(zip(names[1:], values[1:])))


@pytest.mark.parametrize("rec, names, text, slotted", CASES, ids=IDS)
def test_record_is_frozen(rec, names, text, slotted):
    for name in names:
        before = getattr(rec, name)
        with pytest.raises(AttributeError):
            setattr(rec, name, before)
        with pytest.raises(AttributeError):
            delattr(rec, name)
        assert getattr(rec, name) is before
    if slotted:
        assert not hasattr(rec, "__dict__")


def test_equality_needs_the_same_class():
    # equal field tuples, different classes
    assert GPVerdict(True) != WickPairVerdict(True)
    assert Matrix(ZZ, 2, 2, (0, 1, -1, 0)) != SkewMatrix(ZZ, 2, 2, (0, 1, -1, 0))
    assert GroundSet(3) != 3 and GroundSet(3) != (3,)
    assert GroundSet(3) == GroundSet(3) and GroundSet(3) != GroundSet(4)
    assert len({GroundSet(3), GroundSet(3), GroundSet(4)}) == 2


def test_trailing_defaults():
    assert AxiomVerdict(True) == AxiomVerdict(True, None, None, None, None)
    assert AxiomVerdict(False, x=2) == AxiomVerdict(ok=False, reason=None, x=2)
    assert GPVerdict(False, value=3) == GPVerdict(False, None, None, 3)
    assert WickPairVerdict(ok=True).value is None
    with pytest.raises(TypeError):
        AxiomVerdict()


def test_post_init_checks_and_canonicalises():
    # the subclass's own __post_init__ runs, after Matrix's
    assert Matrix(ZZ, 2, 2, (0, 1, 1, 0)).entries == (0, 1, 1, 0)
    with pytest.raises(InputError, match="not skew"):
        SkewMatrix(ZZ, 2, 2, (0, 1, 1, 0))
    with pytest.raises(InputError, match="must be square"):
        SkewMatrix(ZZ, 1, 2, (0, 0))
    # __post_init__ may replace a field through object.__setattr__
    assert Matrix(QQ, 1, 1, (2,)).entries == (Fraction(2),)
    assert PluckerVector(G3, r=1, ring=F7, coords=(3, 6, 2)).coords == (1, 2, 3)
    with pytest.raises(InputError):
        GroundSet(-1)
    with pytest.raises(InputError):
        SubsetMask(G2, 4)


def test_importing_the_cli_compiles_no_record_code():
    probe = "import sys, omatroid.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "[]"
