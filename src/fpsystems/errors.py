"""Exception types shared across the package."""


class CapExceededError(RuntimeError):
    """An enumeration or search would exceed its configured cap."""


class DegenerateSystemError(ValueError):
    """The coefficient matrix has rank below the number of equations."""
