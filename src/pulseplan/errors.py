"""Exception types shared across the package.

The CLI maps these onto process exit codes: usage problems exit 1, bad or
infeasible input exits 2, internal invariant violations exit 3.
"""


class PulseplanError(Exception):
    """Base class for all package errors."""


class ScenarioError(PulseplanError):
    """Invalid configuration or scenario input (rejected at load)."""


class InfeasibleError(PulseplanError):
    """The input admits no feasible schedule (e.g. unschedulable tasks)."""

    def __init__(self, message, task_ids=()):
        super().__init__(message)
        self.task_ids = tuple(task_ids)


class ResourceLimitError(PulseplanError):
    """An exact-solver desk-scale limit or node budget, the LP export's size
    limit or the disk catalog's size limit was exceeded; ``limit`` names
    which: ``"exact"``, ``"lp"`` or ``"catalog"``."""

    def __init__(self, message, limit=""):
        super().__init__(message)
        self.limit = limit


class InternalInvariantError(PulseplanError):
    """A proven algorithm invariant was violated; signals a bug, never input."""
