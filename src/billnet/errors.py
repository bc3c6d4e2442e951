"""Exception types shared across the package, and the one integer check."""

import operator


def check_int(name: str, value) -> None:
    """Refuse a ``value`` that is not an integer (a bool, or anything
    ``operator.index`` rejects) with TypeError naming it ``name``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        operator.index(value)
    except TypeError:
        raise TypeError(f"{name} {value!r} is not an integer") from None


class BillnetError(Exception):
    """Base class for all billnet errors."""


class ShapeMismatch(BillnetError):
    pass


class NonBinaryInput(BillnetError):
    pass


class BadGrouping(BillnetError):
    pass


class NonBinarySelect(BillnetError):
    pass


class NotFullyQuantized(BillnetError):
    pass


class StageOrderViolation(BillnetError):
    pass


class DisconnectedGraph(BillnetError):
    pass


class BadConfig(BillnetError):
    pass


class ZeroScale(BillnetError):
    pass

