import gc
import sys

# Only verify and amplitude read the amplitude layer.  It is compiled here,
# before the rest of the package, while the heap is smallest: compiled
# later, from run_verify or cmd_amplitude, it raises the command's peak RSS.
if sys.argv[1:2] in (["verify"], ["amplitude"]):
    from . import transmission_amplitudes  # noqa: F401
from . import cli


def main() -> int:
    """`python -m defectchain` and the installed `defectchain` script."""
    code = cli.main()
    # Every output has been written and closed.  The interpreter's finalizer
    # would still run full cycle collections over all that numpy and the
    # package built, about 25-30 ms of a cold command, for memory the OS
    # reclaims anyway; they skip frozen objects.  atexit handlers and the
    # flush of the std streams still run.
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
