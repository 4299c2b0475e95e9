"""The package's public surface: the names ``csu21`` exports, stated exactly.

Adding or removing a public name then needs an edit here, so the surface
only changes on purpose.
"""

import csu21

PUBLIC = {
    "CentralAngles", "ClassTarget", "ConnectionPath", "CorrectionBranchError",
    "EllipticNF", "FamilyMismatch", "GElement", "GeneratorAngles",
    "InvalidRepData", "IsometryType", "LengthMismatch", "LiftedRepData",
    "LinearParam", "LoxodromicNF", "NormalForm", "NotASolution", "NotCoprime",
    "ParabolicC1NF", "ParabolicC2NF", "PolyParam", "SampledParam",
    "SearchResult", "SeifertPresentation", "TOL_ANGLE", "TOL_CLASSIFY",
    "TOL_GROUP", "TableCase", "Unliftable", "algebra_coords",
    "algebra_element", "burns_epstein", "canonical_lift_data", "check_u21",
    "classify", "connection_coeffs", "cs_closed", "cs_delta_closed",
    "cs_delta_quadrature", "cs_integrand", "cs_pipeline", "developing_map",
    "extract_lift_data", "find_representation", "g_identity", "g_inverse",
    "g_multiply", "g_project", "gauge_shift_boundary_integral",
    "gauge_shift_closed", "holonomy", "implied_angles", "is_reducible",
    "lie_exp", "lift_to_g", "make_random_rep", "mod_z", "presentation",
    "random_algebra_element", "random_u21", "relation_residual",
    "sigma_2_3_11_fixture", "sigma_2_3_11_targets", "solve_b",
    "target_from_angles", "u21_algebra_residual", "validate_rep",
}


def test_all_states_the_public_names_exactly():
    assert len(PUBLIC) == 66
    assert len(csu21.__all__) == len(set(csu21.__all__))
    assert set(csu21.__all__) == PUBLIC


def test_every_public_name_resolves_on_the_package():
    for name in csu21.__all__:
        assert hasattr(csu21, name), name
