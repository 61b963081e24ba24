import heisvoa

PUBLIC_API = [
    "CocycleSystem",
    "CosetError",
    "E",
    "FockMonomial",
    "GaussRat",
    "IntertwinerOp",
    "IntertwinerSpec",
    "Label",
    "Scalar",
    "State",
    "WindowError",
    "apply_e",
    "as_gauss",
    "as_scalar",
    "binom",
    "branch_phase",
    "gr",
    "label",
    "lam_pow",
    "monomial",
    "zero_label",
    "zeta_pow",
]


def test_public_api_is_pinned():
    namespace: dict = {}
    exec("from heisvoa import *", namespace)
    assert sorted(heisvoa.__all__) == PUBLIC_API
    assert all(name in namespace for name in PUBLIC_API)
