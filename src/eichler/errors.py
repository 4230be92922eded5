"""Exception taxonomy shared by all modules.

DomainError and its children mean the input violates a stated precondition;
RefusalError means the input is legal but outside the accuracy envelope we
are willing to certify (the caller should choose other parameters).
"""


class EichlerError(Exception):
    """Base class for all library errors."""


class DomainError(EichlerError, ValueError):
    """Input outside the operation's domain (wrong half-plane, det != 1, ...)."""


class PoleError(DomainError):
    """Evaluation exactly at a pole or other non-removable singularity."""


class BranchError(DomainError):
    """Evaluation on a branch cut where no continuous value exists."""


class RefusalError(EichlerError):
    """Legal input refused because the requested accuracy cannot be certified."""
