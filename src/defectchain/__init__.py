"""Verification and computation engine for oscillator-type integrable
defects in Heisenberg spin chains."""

__version__ = "0.1.0"


class ConvergenceError(RuntimeError):
    """A truncated product or sum failed to reach its tail tolerance.

    Defined here, not in `special_functions` that raises it, so that the
    command line can report it without loading the amplitude layer."""
