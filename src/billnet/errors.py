"""Exception types shared across the package."""


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

