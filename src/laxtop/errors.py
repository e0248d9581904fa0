"""Exception hierarchy shared by all laxtop modules, and the work budget."""

import os


class LaxtopError(Exception):
    """Base class for all errors raised by this package."""


class DuplicatePoint(LaxtopError):
    pass


class UnknownLabel(LaxtopError):
    pass


class NotATopology(LaxtopError):
    """Raised with the offending set (or pair of sets) attached."""

    def __init__(self, message, offending=None):
        super().__init__(message)
        self.offending = offending


class NotContinuous(LaxtopError):
    pass


class NotSurjective(LaxtopError):
    pass


class NotT0(LaxtopError):
    pass


class NotAPartialOrder(LaxtopError):
    pass


class NoMeets(LaxtopError):
    pass


class MeetsMissing(LaxtopError):
    """A required infimum does not exist; carries the witnessing family."""

    def __init__(self, message, family=None):
        super().__init__(message)
        self.family = family


class NotALattice(LaxtopError):
    pass


class NotACompleteLattice(LaxtopError):
    pass


class NotCompletelyDistributive(LaxtopError):
    pass


class NotAChain(LaxtopError):
    pass


class NotClosedLevel(LaxtopError):
    pass


class NotParallel(LaxtopError):
    pass


class BaseMismatch(LaxtopError):
    pass


class NotHeyting(LaxtopError):
    """A required implication is missing; carries the witnessing pair."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class CapExceeded(LaxtopError):
    pass


class InternalInconsistency(LaxtopError):
    """Two routes that must agree by theory disagreed; never swallowed."""


class ParseError(LaxtopError):
    pass


class SchemaError(LaxtopError):
    pass


WORK_CAP = 10**6  # units of work one search may spend when LAXTOP_CAP is unset


def work_cap() -> int:
    """``LAXTOP_CAP`` if set, else ``WORK_CAP``; SchemaError unless a positive integer."""
    raw = os.environ.get("LAXTOP_CAP") or str(WORK_CAP)
    if not raw.isdecimal() or int(raw) < 1:
        raise SchemaError(f"LAXTOP_CAP must be a positive integer, not {raw!r}")
    return int(raw)


class Budget:
    """The work one call of an exhaustive search may do: charged before the
    work it counts, ``spend`` raises ``CapExceeded`` past the cap."""

    def __init__(self, search: str, cap: int | None = None):
        self.search = search
        self.cap = work_cap() if cap is None else cap
        self.used = 0

    def spend(self, n: int = 1):
        self.used += n
        if self.used > self.cap:
            raise CapExceeded(f"{self.search} budget {self.cap} exceeded")
