"""The checked input types: immutable, and each refuses a bad value with its error.

Every type that takes a value into the library checks it when it is built.
These tests pin, per type, that an instance refuses attribute assignment and
that each rule raises its own exception type with its own message.
"""

from fractions import Fraction

import pytest

from lensgenus.cables import CableParams, IteratedCableParams
from lensgenus.complement import GenusReport, WindingData
from lensgenus.errors import DomainError
from lensgenus.exactarith import AbelianGroup, IntMatrix
from lensgenus.lens import H1Class, LensSpace
from lensgenus.norm import PeripheralClass, SeifertPiece
from lensgenus.stabilization import StabFamily
from lensgenus.twistfamily import FramedLink, LinkComponent, TwistParams

L72 = LensSpace(7, 2)
A, B = LinkComponent("a", Fraction(1)), LinkComponent("b", None)

# (type, arguments of a valid instance)
VALID = [
    (LensSpace, (7, 2)),
    (H1Class, (3, L72)),
    (CableParams, (L72, 2, 3)),
    (IteratedCableParams, (LensSpace(40, 1), (2, 3))),
    (StabFamily, (LensSpace(20, 1), 1)),
    (TwistParams, (1, 1, 1)),
    (WindingData, (L72, 3)),
    (FramedLink, ((A, B), ((0, 1), (1, 0)))),
    (SeifertPiece, (1, (2, 3))),
    (IntMatrix, (2, 2, (1, 2, 3, 4))),
    (GenusReport, (Fraction(3), 2, Fraction(3, 2), PeripheralClass(0, 1), True)),
    (AbelianGroup, (1, (2, 4))),
]

# (type, bad arguments, the exact exception type, message pattern)
INVALID = [
    (LensSpace, (7, 7), DomainError, "need p > q >= 1"),
    (LensSpace, (7, 0), DomainError, "need p > q >= 1"),
    (LensSpace, (6, 2), DomainError, "coprime"),
    (H1Class, (7, L72), DomainError, r"outside \[0, 6\]"),
    (H1Class, (-1, L72), DomainError, "outside"),
    (CableParams, (L72, 1, 3), DomainError, "m, n >= 2"),
    (CableParams, (L72, 2, 1), DomainError, "m, n >= 2"),
    (IteratedCableParams, (L72, ()), DomainError, "at least one"),
    (IteratedCableParams, (L72, (2, 1)), DomainError, ">= 2"),
    (IteratedCableParams, (LensSpace(40, 1), (5, 8)), DomainError, "total winding 40"),
    (StabFamily, (LensSpace(20, 1), 0), DomainError, "k must be >= 1"),
    (StabFamily, (LensSpace(9, 1), 1), DomainError, "p >= 2q"),
    (TwistParams, (0, 1, 1), DomainError, "band counts"),
    (TwistParams, (1, 0, 1), DomainError, "band counts"),
    (TwistParams, (1, 1, 0), DomainError, "nonzero"),
    (WindingData, (L72, -1), DomainError, "winding number"),
    (FramedLink, ((A, B), ((0, 1),)), ValueError, "size"),
    (FramedLink, ((A, B), ((1, 1), (1, 0))), ValueError, "diagonal"),
    (FramedLink, ((A, B), ((0, 1), (2, 0))), ValueError, "symmetric"),
    (FramedLink, ((A, A), ((0, 1), (1, 0))), ValueError, "unique"),
    (SeifertPiece, (1, (2, 0)), ValueError, "cone order 0 < 1"),
    (IntMatrix, (0, 0, ()), ValueError, "bad shape"),
    (IntMatrix, (2, 2, (1, 2, 3)), ValueError, "entry count"),
    (IntMatrix, (1, 2, (1, Fraction(1, 2))), ValueError, "integers"),
    (GenusReport, (Fraction(-1), 1, Fraction(-1), PeripheralClass(0, 1), True),
     ValueError, "chi_minus"),
    (GenusReport, (Fraction(3), 0, Fraction(3), PeripheralClass(0, 1), True),
     ValueError, "mu_pairing"),
    (GenusReport, (Fraction(3), 2, Fraction(3), PeripheralClass(0, 1), True),
     ValueError, "theta must equal"),
    (AbelianGroup, (-1, ()), ValueError, "negative free rank"),
    (AbelianGroup, (0, (1,)), ValueError, "coefficient 1 < 2"),
    (AbelianGroup, (0, (2, 3)), ValueError, "2 does not divide 3"),
]


@pytest.mark.parametrize("cls, args", VALID, ids=[c.__name__ for c, _ in VALID])
def test_refuses_attribute_assignment(cls, args):
    obj = cls(*args)
    assert tuple(obj) == args
    for name in obj._fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
    with pytest.raises(AttributeError):
        obj.extra = 0
    assert tuple(obj) == args


@pytest.mark.parametrize("cls, args, error, match", INVALID,
                         ids=[f"{c.__name__}-{i}" for i, (c, *_) in enumerate(INVALID)])
def test_bad_value_raises_its_error(cls, args, error, match):
    with pytest.raises(ValueError, match=match) as info:
        cls(*args)
    assert type(info.value) is error


def test_every_checked_type_has_valid_and_invalid_cases():
    assert {cls for cls, _ in VALID} == {cls for cls, *_ in INVALID}
