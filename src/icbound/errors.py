"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or inconsistent user input (bad mask width, unknown label,
    unparseable file, mismatched ground sets)."""


class ResourceCapError(RuntimeError):
    """An operation was refused because it would exceed a size cap
    (dense subset enumeration, branch-and-bound instance size, code search,
    a denominator past rational.DIGIT_CAP digits)."""


class VerificationError(AssertionError):
    """An exact check that must hold by construction failed.

    Raised by the solver's post-hoc feasibility/duality audit and by internal
    certificate constructions; seeing this means a bug, not bad input.
    """


class CertificateInvalid(Exception):
    """A certificate failed exact verification.

    Distinct from VerificationError: an invalid certificate is a legitimate
    outcome when checking external input (the CLI maps it to exit code 1),
    not a bug in this package.
    """
