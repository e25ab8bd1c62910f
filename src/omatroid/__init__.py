"""Exact arithmetic for matroid and orthogonal matroid coordinate vectors.

Everything here runs over exact rings (rationals, prime fields, integers
with restricted units): axiom checks with minimal witnesses, quadratic
exchange-equation sweeps for rank-r and full coordinate vectors, pfaffians,
matrix reconstruction from vectors, and small exhaustive censuses backed by
certified counting bounds.
"""

__version__ = "0.1.0"

# Each exported name, by the module that defines it. A module is imported when one of
# its names, or the module itself (``omatroid.census``), is first read, so importing the
# package, or running one CLI verb, loads only the modules that are used.
_EXPORTS = {
    "census": "ASYMPTOTIC_GAP_NOTE LABELED_COUNT_NOTE BoundCheck CensusReport "
    "enumerate_orthogonal find_regular_representation representability_census verify_nelson_chain",
    "errors": "CapabilityError ClassificationError InputError MapUndefinedError MembershipError "
    "OmatroidError RankError",
    "exactalg": "GF Homomorphism IntegerRing Matrix PrimeField QQ RationalField Ring SkewMatrix ZZ "
    "all_principal_pfaffians apply_hom determinant pfaffian rational_residue_hom residue_hom",
    "groundset": "GroundSet SubsetMask format_subset_key mask_elements mask_of_elements "
    "masks_of_size parse_subset_key",
    "matroid": "BasisFamily is_matroid is_matroid_strong is_orthogonal is_orthogonal_strong twist",
    "plucker": "GPVerdict PluckerClassification PluckerVector check_gp_3term check_gp_full "
    "classify_plucker plucker_from_matrix plucker_support reconstruct_plucker",
    "verdicts": "AxiomVerdict Label",
    "wick": "WickClassification WickPairVerdict WickRepresentation WickVector check_wick_4term "
    "check_wick_full classify_wick reconstruct_wick twist_wick wick_from_representation wick_support",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
