"""Exact free-boson vertex algebra calculus and identity verification."""

from .fock import FockMonomial, Label, State, label, monomial, zero_label
from .intertwiner import (
    CocycleSystem,
    IntertwinerOp,
    IntertwinerSpec,
    apply_Delta,
    apply_Ypm,
    apply_e,
    intertwine,
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
from .series import CosetError, WindowError, WindowedSeries

__all__ = [
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
    "WindowedSeries",
    "apply_Delta",
    "apply_Ypm",
    "apply_e",
    "as_gauss",
    "as_scalar",
    "binom",
    "branch_phase",
    "gr",
    "intertwine",
    "label",
    "lam_pow",
    "monomial",
    "zero_label",
    "zeta_pow",
]
