import pytest

from heisvoa.scalars import gr
from heisvoa.series import CosetError, exponent_index


def test_offset_coset_mismatch():
    with pytest.raises(CosetError):
        exponent_index(gr("1/2"), gr("1/3"))
