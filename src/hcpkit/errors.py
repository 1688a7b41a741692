"""Exception types shared across hcpkit modules."""


class HcpkitError(Exception):
    """Base class for all hcpkit errors."""


class PrecisionExhausted(HcpkitError):
    """Coefficient rounding still failed after the configured retries."""


class CapExceeded(HcpkitError):
    """A class number (or discriminant) exceeded the configured cap."""


class CorruptCache(HcpkitError):
    """A cache file failed its checksum or structural invariants."""


class VerificationFailed(HcpkitError, ArithmeticError):
    """An exact consistency check on a computed result did not hold."""


class FieldMismatch(HcpkitError):
    """Operands live in different finite fields."""


class FieldTooLarge(HcpkitError):
    """Field size above the exhaustive-enumeration limit (2^20)."""


class SupersingularInput(HcpkitError):
    """Operation defined only for ordinary j-invariants got a supersingular one."""


class NotInert(HcpkitError):
    """kronecker(D, p) != -1 where inertness is required."""


class NotFound(HcpkitError):
    """A bounded search exhausted its range without a hit."""


class PreconditionFailed(HcpkitError):
    """A named experiment precondition does not hold for the given inputs."""


class UnsupportedLevel(HcpkitError):
    """Modular polynomial level outside the supported set."""
