"""The package surface is exactly the union of the layer modules' __all__."""

import wcurves
from wcurves import boundary, euler, exact, prototypes, siegelveech, verify

LAYERS = (boundary, euler, exact, prototypes, siegelveech, verify)

# The names wcurves exported while its __all__ was a hand-kept list.
HAND_KEPT = {
    "CohClass", "ConsistencyCheck", "CuspComplex", "DiscriminantReport",
    "EulerReport", "Prototype", "QuadNum", "SvReport", "UNDETERMINED",
    "billiards_coefficient", "billiards_constant", "build_complex",
    "canonical", "check_discriminant", "chi_P", "chi_Q",
    "chi_Q_via_rm_prototypes", "chi_S", "chi_W", "chi_W_components", "chi_X",
    "consistency_chain", "decompose_discriminant", "divisors",
    "enumerate_prototypes", "euler_phi", "euler_report", "export_dot",
    "from_splitting_prototype", "fundamental_class", "h2", "h_table",
    "intersect", "is_discriminant", "is_square", "kronecker", "lambda_of",
    "lyapunov_lambda2", "mobius", "multiplicity", "next_prototype",
    "num_components", "one_cylinder_cusps", "orbifold_order", "orbits",
    "prev_prototype", "prototype_from_json", "prototype_to_json", "psi",
    "rm_prototypes", "sigma", "spin", "sv_constant", "sv_constant_components",
    "sv_report", "t_involution", "to_splitting_prototype", "unfolding_area",
    "unfolding_prototype", "v_of_prototype", "verify_discriminant",
    "verify_range", "y_image",
}


def test_all_is_the_union_of_the_layers():
    names = wcurves.__all__
    assert len(names) == len(set(names))
    assert set(names) == {n for m in LAYERS for n in m.__all__}


def test_every_name_is_the_layer_object():
    for m in LAYERS:
        for n in m.__all__:
            assert getattr(wcurves, n) is getattr(m, n), f"{m.__name__}.{n}"


def test_star_import_binds_every_name():
    ns: dict = {}
    exec("from wcurves import *", ns)
    assert set(wcurves.__all__) <= ns.keys()
    for n in wcurves.__all__:
        assert ns[n] is getattr(wcurves, n)


def test_hand_kept_names_survive():
    assert len(HAND_KEPT) == 63
    assert HAND_KEPT <= set(wcurves.__all__)
    assert set(wcurves.__all__) - HAND_KEPT == {
        "CurveNode", "JunctionEdge", "mobius_weighted_sum", "zeta_minus_one",
    }
