"""Small report types shared by the verification operations.

Every record type of the package (these two, `InnerDerivation`,
`ReconstructionResult`, `CampaignConfig` and `Report`) is a
`collections.namedtuple` subclass with `__slots__ = ()`, for import
cost: a namedtuple class is built several times faster than a
dataclass, and `dataclasses` also imports `inspect`, so six dataclasses
cost about half of the package's set-up time. Each record is immutable
and compares and hashes as the tuple of its fields.
"""

from collections import namedtuple


class Violation(namedtuple("Violation", "kind probe lhs rhs")):
    """One failed identity: which check, on which probe, with both sides."""

    __slots__ = ()


class CheckReport(namedtuple("CheckReport", "checked violations", defaults=((),))):
    """Outcome of a verification pass; violations are data, not errors."""

    __slots__ = ()

    @property
    def ok(self):
        return not self.violations
