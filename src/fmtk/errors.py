"""Shared exception types."""


class FormulaSyntaxError(ValueError):
    """Raised by the formula parser; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"at position {position}: {message}")
        self.position = position


class StructureFormatError(ValueError):
    """Malformed structure / tree / expression text input."""


class GuardExceeded(RuntimeError):
    """A desk-scale guard refused a request before the work it bounds began.

    Library guards are the ``*_GUARD`` module constants; to raise one, assign
    a larger value to it. The CLI's bound is ``--max-size``.
    """


def check_guard(what: str, value: int, limit: int, guard: str, shown: str | None = None) -> None:
    """Raise :class:`GuardExceeded` as ``"<what> <value> exceeds <guard>
    <limit>"`` when ``value`` is past ``limit``; ``shown``, when given, is
    printed in place of ``value``."""
    if value > limit:
        raise GuardExceeded(f"{what} {value if shown is None else shown} exceeds {guard} {limit}")


class VerificationFailed(RuntimeError):
    """A machine-checked postcondition did not hold."""
