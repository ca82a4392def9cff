"""Small report types shared by the verification operations.

Every record type of the package (these two, `InnerDerivation`,
`ReconstructionResult`, `TwoLocalOracle`, `WitnessFamily`,
`JordanWitnessFamily`, `JordanPairDerivation`, `CampaignConfig` and
`Report`) is a `collections.namedtuple` subclass with `__slots__ = ()`,
for import cost: a namedtuple class is built several times faster than
a dataclass, and `dataclasses` also imports `inspect`, so six
dataclasses cost about half of the package's set-up time. A record
that checks its fields does so in `__new__`. Each record is immutable
and compares as the tuple of its fields; it hashes so too, except the
witness families, whose read-only mapping field is unhashable.
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
