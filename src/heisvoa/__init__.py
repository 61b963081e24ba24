"""Exact free-boson vertex algebra calculus and identity verification."""

from .fock import FockMonomial, Label, State, label, monomial, zero_label
from .intertwiner import (
    CocycleSystem,
    IntertwinerOp,
    apply_e,
)
from .scalars import (
    E,
    GaussRat,
    Scalar,
    as_gauss,
    as_scalar,
    binom,
    branch_phase,
    gr,
    lam_pow,
    zeta_pow,
)
from .series import CosetError

__all__ = [
    "CocycleSystem",
    "CosetError",
    "E",
    "FockMonomial",
    "GaussRat",
    "IntertwinerOp",
    "Label",
    "Scalar",
    "State",
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
