"""Exception types shared across the package."""


class SwitchGameError(Exception):
    """Base class for all package-specific errors."""


class SizingError(SwitchGameError):
    """A requested computation exceeds a configured size or stability cap."""


class ConvergenceError(SwitchGameError):
    """An iterative scheme failed to converge within its iteration budget."""


class DataError(SwitchGameError):
    """Input data violates a structural requirement (shapes, domain membership)."""


class ScenarioError(DataError):
    """A scenario document is malformed or fails validation.

    Carries the full list of diagnostics, not just the first one, each
    naming the field it concerns.
    """

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))
