"""Verification and computation engine for oscillator-type integrable
defects in Heisenberg spin chains."""

__version__ = "0.1.0"
