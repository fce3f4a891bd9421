"""Exception hierarchy shared across the package.

Exit-code contract for the CLI: ValidationError/DomainError and friends map
to exit 2, SizeLimitError to exit 3.  The size limits, and what sets each:

- group construction: at most `groups.MAX_ORDER` (4096) elements, a
  constant;
- cohomology, with any coefficients: group order at most 96, or the value
  of the environment variable `BRQ_MAX_ORDER`; witness {order, unknowns},
  the unknowns of the first linear system the computation would solve:
  for H^2 with finite or Q/Z coefficients the bar solver's
  ((|S| - 1)(|G| - 1) + |S|) r values off the gauge tree, |S| the
  generators and r the rank;
- `--max-order` (the `max_order` argument) replaces that limit for one
  computation; the subgroup solves behind a restriction take the order of
  their group as their limit;
- a limit must be an integer >= 1: any other `max_order` or
  `BRQ_MAX_ORDER` is a ValidationError with witness {field, value};
- the modulus: a coefficient module whose factors have an lcm above
  `linalg.INT64_BOUND` (2^20) is refused with witness {modulus, limit}.
- the conductor: a cyclotomic number read from input with m above
  `cyclotomic.MAX_CONDUCTOR` (4096), a constant, is refused with witness
  {field, value, limit}.
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
