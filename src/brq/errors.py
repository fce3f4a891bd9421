"""Exception hierarchy shared across the package.

Exit-code contract for the CLI: ValidationError/DomainError and friends map
to exit 2, SizeLimitError to exit 3.  Size limits are the group-order limits
(`--max-order`, `BRQ_MAX_ORDER`) and the modulus limit: a coefficient module
whose factors have an lcm above `linalg.INT64_BOUND` (2^20) is refused with
witness {modulus, limit}.
"""


class BrqError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.message = message
        self.witness = witness

    def to_json_dict(self):
        doc = {"type": type(self).__name__, "message": self.message}
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc


class ValidationError(BrqError):
    """Malformed input object: broken group table, bad cocycle, bad matrix."""


class DomainError(BrqError):
    """Structurally valid input outside the operation's domain."""


class ContainmentError(BrqError):
    """A claimed subgroup/span containment fails; witness holds a vector."""


class SizeLimitError(BrqError):
    """A configured size limit was exceeded; witness holds the dimensions."""


class UnsupportedCaseError(BrqError):
    """Input selects a case the package deliberately does not compute."""
