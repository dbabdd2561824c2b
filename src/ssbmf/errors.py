"""Exception types shared across the package."""


class SsbmfError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(SsbmfError):
    """Invalid parameters (bad sparsity, zero dimensions, out-of-range values)."""


class DimensionError(ParameterError):
    """Shapes of the supplied objects do not match."""


class InconsistencyError(SsbmfError):
    """A bootstrapped tensor entry fell outside {0..k}; m is likely too small."""

    def __init__(self, triple, value):
        self.triple = triple
        self.value = value
        super().__init__(f"tensor entry {triple} = {value} outside valid range")


class RankDeficiencyError(SsbmfError):
    """Numerical rank lower than the requested number of components."""


class DegeneracyError(SsbmfError):
    """Eigenvalue collisions persisted across all retries."""


class RoundingError(SsbmfError):
    """A recovered vector could not be rounded to a Boolean vector."""

    def __init__(self, index, margin):
        self.index = index
        self.margin = margin
        super().__init__(f"entry {index} is {margin:.4g} away from both 0 and 1")


class ExtensionError(SsbmfError):
    """A non-anchor row failed the sparsity or consistency re-check."""


class BudgetExceededError(SsbmfError):
    """Exact enumeration would exceed the configured budget."""
