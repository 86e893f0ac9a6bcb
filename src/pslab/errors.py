"""Error taxonomy shared by all modules.

The CLI maps these onto process exit codes: validation problems exit
with 2, guard violations with 3, and a route disagreement (two
algebraically equal evaluation paths drifting apart) with 4.
"""


class PslabError(ValueError):
    """Base class for all library errors."""


class ValidationError(PslabError):
    """A precondition or domain restriction was violated."""


class GuardError(PslabError):
    """A desk-scale resource guard (memory/size limit) was exceeded."""


class RouteDisagreementError(PslabError):
    """Two independent evaluation routes of the same quantity disagree.

    Raised only when an internal cross-check fails; signals an
    implementation bug rather than bad input.
    """


def check_range(value: int, least: int, guard: int, what: str, name: str = "x") -> None:
    """The one domain-and-guard check, run before any work starts: a value
    below ``least`` raises ValidationError (exit 2), a value above ``guard``
    raises GuardError (exit 3)."""
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")
    if value > guard:
        raise GuardError(f"{name}={value} exceeds the {what} guard {guard:.0e}")
