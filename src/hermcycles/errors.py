"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` used by the CLI; the
exception class decides the exit code through its ``exit_code`` (schema 1,
domain 2, resource 3).
"""


class Error(Exception):
    code = "error"

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class SchemaError(Error):
    """Malformed request or input document."""

    code = "schema-violation"
    exit_code = 1


class DomainError(Error):
    """Input is well-formed but outside an operation's domain."""

    code = "domain-error"
    exit_code = 2


class HermitianViolationError(DomainError):
    code = "hermitian-violation"


class SingularMatrixError(DomainError):
    code = "singular-matrix"


class UnsupportedPrimeError(DomainError):
    code = "unsupported-prime"


class PreconditionError(DomainError):
    code = "precondition-violation"


class NonIntegralLatticeError(DomainError):
    code = "nonintegral-lattice"


class InvalidFieldError(DomainError):
    code = "invalid-field"


class IntegralityError(DomainError):
    code = "integrality-violation"


class ResourceError(Error):
    """A configurable work limit was exceeded."""

    code = "resource-limit"
    exit_code = 3


class EnumerationLimitError(ResourceError):
    code = "enumeration-limit"

    def __init__(self, message, count=None):
        super().__init__(message)
        self.count = count


class FactorizationLimitError(ResourceError):
    code = "factorization-limit"
