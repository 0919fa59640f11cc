"""Help and usage errors of the command line, formatted by argparse from the
option table that ``cli`` passes in, 78 columns wide (argparse's width at 80
columns) whatever the terminal.  ``cli`` imports this module only to print
help or a usage error, so a command line that parses loads neither it nor
argparse, gettext or locale.
"""
from __future__ import annotations

import argparse
from typing import Optional, Sequence


def parser(command: Optional[str], options: Sequence[tuple],
           commands: dict) -> argparse.ArgumentParser:
    """The parser of the program (``command`` None), listing ``commands``, or
    of one command.  ``options`` start with help, which argparse adds itself."""
    built = argparse.ArgumentParser(
        prog="ghzmetro" + (f" {command}" if command else ""),
        description=None if command else "Exact metrology of GHZ-diagonal "
                                         "bound-entangled states",
        formatter_class=lambda prog: argparse.HelpFormatter(prog, width=78))
    for name, kind, _, required, about in options[1:]:
        if kind is bool:
            built.add_argument(name, action="store_true", help=about)
        else:
            built.add_argument(name, choices=kind if isinstance(kind, tuple) else None,
                               required=required, help=about)
    if command is None:
        listing = built.add_subparsers()
        for name, (_, about, _) in commands.items():
            listing.add_parser(name, help=about)
    return built
