"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: precondition violations exit 2,
precision/certification failures exit 3, unsupported regimes exit 4.
"""


class KohmotoError(Exception):
    exit_code = 2


class PreconditionError(KohmotoError):
    """Input violates a documented precondition."""


class DegeneracyError(PreconditionError):
    """A polynomial root of multiplicity > 1 was detected (e.g. touching
    bands at coupling 0); the band machinery refuses to guess."""


class PrecisionError(KohmotoError):
    """A certification could not be completed at the requested tolerance."""

    exit_code = 3


class UnsupportedRegimeError(KohmotoError):
    """The requested computation needs a hypothesis that does not hold
    (e.g. coupling V > 4 for the optimality certificate)."""

    exit_code = 4
