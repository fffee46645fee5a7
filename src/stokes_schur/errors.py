"""Exception types shared across the package."""


class InvalidSizeError(ValueError):
    """Problem size n is too small to define the staggered grids."""


class InvalidDataError(ValueError):
    """Boundary data or a right-hand side holds NaN or infinite values."""


class InvalidToleranceError(ValueError):
    """A cutoff or tolerance that must be positive was not."""


class DenseCapError(RuntimeError):
    """A dense-oracle routine was asked for a grid above the size cap."""


class FactorizationError(RuntimeError):
    """Symmetric factorization failed (matrix not positive definite)."""


class StructuralError(RuntimeError):
    """A kernel matrix that is provably SPD failed to factorize.

    This signals an assembly bug upstream, not a property of the input.
    """


class ModeMismatchError(ValueError):
    """Operator set built in the wrong perturbation mode for the request."""


class CgDivergenceError(RuntimeError):
    """Conjugate gradient iterates became NaN or Inf."""
