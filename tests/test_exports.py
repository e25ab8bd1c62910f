import pytest

import omatroid
from omatroid import census, errors, exactalg, groundset, jsonio, matroid, plucker
from omatroid.groundset import GroundSet


@pytest.mark.parametrize("module", [omatroid, jsonio], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_removed_aliases_are_gone():
    # each duplicated a method or constructor: SkewMatrix.principal,
    # PartialField.is_element, Homomorphism.apply, range(1 << n) and SubsetMask
    for name in ("principal_submatrix", "apply_hom_value", "is_element"):
        assert not hasattr(exactalg, name)
        assert name not in omatroid.__all__
    assert not hasattr(GroundSet, "all_masks")
    assert not hasattr(GroundSet, "subset_from_mask")
    # no raise of ScalingError was reachable: the first nonzero coordinate is always a unit
    assert not hasattr(errors, "ScalingError")
    assert not hasattr(omatroid, "ScalingError")
    # one support search, sized by SWEEP_BUDGET, replaced the regular search and the hand-set caps
    for name in ("_regular_normal_reps", "REGULAR_SEARCH_MAX_N", "DEMO_MAX_N", "CENSUS_CAPS"):
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
    for name in ("for_field", "json_decl", "units"):
        assert not hasattr(exactalg.PartialField, name)
    assert exactalg.PartialField.__slots__ == ("ring",)
    assert exactalg.Homomorphism.__slots__ == ("source", "target")
    # the zero-pattern demo counted 2**C(n,2) supports by construction; len() is a subset's size
    for name in ("realizable_sets_demo", "RealizableSetsDemo"):
        assert not hasattr(census, name)
        assert not hasattr(omatroid, name)
        assert name not in omatroid.__all__
    assert not hasattr(groundset.SubsetMask, "size")
