"""The ``ghzmetro`` entry point.  Every request is a new process that may
compile this module from source, so it holds only what ``--version`` runs;
any other command line goes to ``commands.run``, imported only then.  A
stdout closed by its reader, buffered or not, ends the request with exit
code 1 and nothing on stderr, ``--version`` included."""
import os
import sys

from . import __version__


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv == ["--version"]:  # the request the benchmark's setup time measures
            sys.stdout.write(f"ghzmetro {__version__}\n")
            sys.stdout.flush()
            raise SystemExit(0)
        from . import commands

        return commands.run(argv)
    except BrokenPipeError:  # the reader closed stdout: the exit flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
