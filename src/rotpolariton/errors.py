"""Exception types shared across the package."""


class RotPolaritonError(Exception):
    """Base class for all package-specific errors."""


class NotConverged(RotPolaritonError, RuntimeError):
    """The propagator's step control spent its runs before certifying the error."""


class DesignInfeasible(RotPolaritonError, RuntimeError):
    """Requested composite-pulse design has no solution in the valid regime."""


class ConfigError(RotPolaritonError, ValueError):
    """Run configuration is missing keys, has wrong types, or is inconsistent."""
