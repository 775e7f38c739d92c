"""Exception types shared across the toolkit."""


class VikitError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(VikitError):
    """An input value violates a structural requirement (shape, finiteness, ...)."""


class DimensionMismatchError(ValidationError):
    """A vector or matrix does not match the ambient dimension."""

    def __init__(self, expected: int, actual: int | tuple[int, ...], what: str = "vector"):
        """``actual`` is a length or an array's shape; a 1-D shape reads as its length."""
        if isinstance(actual, tuple) and len(actual) == 1:
            actual = actual[0]
        self.expected = expected
        self.actual = actual
        kind, want = (("shape", (expected,)) if isinstance(actual, tuple)
                      else ("dimension", expected))
        super().__init__(f"{what} has {kind} {actual}, expected {want}")


class ConfigurationError(VikitError):
    """Solver or checker parameters violate a precondition."""


class DivergenceError(VikitError):
    """An iterate left the representable range."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(f"non-finite iterate at iteration {iteration}")
