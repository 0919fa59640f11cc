"""The ``ghzmetro`` entry point.  Every request is a new process that may
compile this module from source, so it holds only what ``--version`` runs;
any other command line goes to ``commands.run``, imported only then.

Each request flushes stdout, then stderr, before it ends, so no stream fails
at the interpreter's exit and decides the exit code there.  A stdout closed
by its reader or absent (the process started without descriptor 1), buffered
or not, ends the request with exit code 1 and nothing on stderr: help,
``--version`` and argparse's own output included.  A stdout that fails
otherwise (a full disk) ends it with exit code 2 and the one line
``error: cannot write stdout: <reason>``.  Stderr is block-buffered, so its
lines are written at that last flush; if it fails, or the process started
without one, they are lost and the exit code stands."""
import os
import sys

from . import __version__


def _to_devnull(stream) -> None:
    """Point ``stream``'s descriptor at devnull: what it still holds is flushed
    at exit, where a second failure would change the exit code."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if sys.stdout is None:  # started without a descriptor 1: it fails as a closed pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        sys.stdout = open(write_end, "w")
    if sys.stderr is None:  # started without a descriptor 2: its lines are lost
        sys.stderr = open(os.devnull, "w")
    sys.stderr.reconfigure(line_buffering=False, write_through=False)
    try:
        try:
            if argv == ["--version"]:  # the request the benchmark's setup time measures
                sys.stdout.write(f"ghzmetro {__version__}\n")
                raise SystemExit(0)
            from . import commands

            return commands.run(argv)
        finally:  # help and --version exit unflushed; a failed stdout fails here
            sys.stdout.flush()
    except OSError as exc:  # stdout failed
        _to_devnull(sys.stdout)
        if isinstance(exc, BrokenPipeError):  # its reader closed it
            return 1
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return 2
    finally:
        try:
            sys.stderr.flush()
        except OSError:  # stderr's lines are lost, the exit code stands
            _to_devnull(sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
