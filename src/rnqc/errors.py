"""Exception hierarchy.

Three branches, each with the exit code the CLI returns for it:
input problems exit 2, resource-limit problems exit 3, and violated
runtime invariants exit 4. Exit codes 0 and 1 are reserved for the
YES/NO verdict of the decision pipeline.
"""


class RnqcError(Exception):
    """Base class for all package errors."""
    exit_code = 4


class InputError(RnqcError):
    """Malformed or out-of-contract user input."""
    exit_code = 2


class DimacsError(InputError):
    """DIMACS CNF text that does not parse or is internally inconsistent."""


class CircuitError(InputError):
    """Invalid gate, circuit, or register layout."""


class RealModeError(InputError):
    """Operation requires complex amplitudes, or a gate has no real-mode form."""


class GridSpacingError(InputError):
    """Counting grid spacing not representable at the requested precision."""


class ResourceError(RnqcError):
    """A configured resource cap would be exceeded."""
    exit_code = 3


class RegisterCapError(ResourceError):
    """Register larger than the simulator qubit cap."""


class PathBudgetError(ResourceError):
    """Path enumeration would exceed the configured path budget."""


class CountLimitError(ResourceError):
    """Model counting requested beyond the enumeration guard."""


class InvariantError(RnqcError):
    """An internal invariant failed at run time."""


class ZeroStateError(InvariantError):
    """State vector has zero norm where a positive norm is required."""


class NormOverflowError(InvariantError):
    """True norm not representable in double precision."""


class PostselectError(InvariantError):
    """Postselected branch carries no probability mass."""
