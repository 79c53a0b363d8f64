import gc
import os
import sys

# Only verify and amplitude read the amplitude layer.  It is compiled here,
# before the rest of the package, while the heap is smallest: compiled
# later, from run_verify or cmd_amplitude, it raises the command's peak RSS.
if sys.argv[1:2] in (["verify"], ["amplitude"]):
    from . import transmission_amplitudes  # noqa: F401
from . import cli


def main() -> int:
    """`python -m defectchain` and the installed `defectchain` script."""
    try:
        code = cli.main()
    except BrokenPipeError:   # `... | head`: devnull takes the last flush of stdout
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    # Every output has been written and closed.  The interpreter's finalizer
    # would still run full cycle collections over all that numpy and the
    # package built, about 25-30 ms of a cold command, for memory the OS
    # reclaims anyway; they skip frozen objects.  atexit handlers and the
    # flush of the std streams still run.
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
