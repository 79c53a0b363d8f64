"""Verification and computation engine for oscillator-type integrable
defects in Heisenberg spin chains."""
import math
import sys

__version__ = "0.1.0"

# the float's exponent reach, e^x finite with room to spare for |x| <= EXP_REACH
# (exp overflows past 709.78), and the logs of the largest and smallest normal float
EXP_REACH = 700.0
LN_MAX = math.log(sys.float_info.max)
LN_TINY = math.log(sys.float_info.min)


class ConvergenceError(RuntimeError):
    """A truncated product or sum failed to reach its tail tolerance.

    Defined here, not in `special_functions` that raises it, so that the
    command line can report it without loading the amplitude layer."""
