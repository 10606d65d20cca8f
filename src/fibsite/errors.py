"""Error taxonomy shared across the package.

The command-line layer maps these onto distinct exit codes; library users
catch them like ordinary exceptions.
"""


class FibsiteError(Exception):
    """Base class for all library errors."""


class InputError(FibsiteError):
    """A caller handed in data violating an operation's precondition."""


class ValidationFailure(InputError):
    """A structure failed its validator where a valid one was required."""


class RefusedMode(FibsiteError):
    """The requested computation is outside the supported exact regime."""


class CapExceeded(FibsiteError):
    """An enumeration grew past its configured hard cap."""
