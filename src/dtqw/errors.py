"""Exception hierarchy shared across the package.

One class per way a run can fail, matching the CLI's exit codes: a
ValidationError (exit 2) for inputs outside an operation's domain, a
NumericalContractError (exit 3) for a computed quantity that broke a
guarantee.  The message says which rule was broken and names the offending
value.
"""


class WalkError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(WalkError, ValueError):
    """Inputs are outside the documented domain of an operation."""


class NumericalContractError(WalkError):
    """A computed quantity violated an internal numerical guarantee."""
