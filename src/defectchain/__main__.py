import sys

# Only verify and amplitude read the amplitude layer.  It is compiled here,
# before the rest of the package, while the heap is smallest: compiled
# later, from run_verify or cmd_amplitude, it raises the command's peak RSS.
if sys.argv[1:2] in (["verify"], ["amplitude"]):
    from . import transmission_amplitudes  # noqa: F401
from .cli import main

sys.exit(main())
