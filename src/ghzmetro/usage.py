"""The program's argparse parser, built from the option table that ``commands``
passes in.  ``commands`` reads a plain command line itself and hands this parser
every other line: an option shortened or written with ``=``, a negative
value, ``--``, help, ``--version`` with more arguments and every usage error.
Help and usage errors are 78 columns wide (argparse's width at 80 columns),
whatever the terminal; a plain line loads neither this module nor argparse.
Help or version text written to a failed stdout raises, as other output does.
"""
from __future__ import annotations

import argparse
import sys
from collections.abc import Callable

from . import __version__


class Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose failed write to stdout raises (argparse's
    swallows it) for ``cli.main`` to end with exit 1 or 2; its subparsers share it."""

    def _print_message(self, message, file=None):
        if file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


class StoreOne(argparse.Action):
    """Store the one value of an option.  Argparse binds ``--opt=--`` to an
    empty list (3.11) or to ``--`` (3.13), which this refuses as a missing value."""

    def __call__(self, parser, namespace, values, option_string=None):
        if isinstance(values, list) or values == "--":
            raise argparse.ArgumentError(self, "expected one argument")
        setattr(namespace, self.dest, values)


def number(kind: type, read_number: Callable) -> Callable:
    """``read_number`` for ``kind``, named ``kind`` in argparse's messages; the
    ``--`` that argparse 3.13 converts for ``--opt=--`` is a missing value."""
    def read(text: str):
        if text == "--":
            raise argparse.ArgumentTypeError("expected one argument")
        return read_number(text, kind)
    read.__name__ = kind.__name__  # "invalid int value: 'x'"
    return read


def parser(commands: dict, read_number: Callable) -> argparse.ArgumentParser:
    """The program's parser: ``--version`` and a subparser per command of
    ``commands``, which sets the command's handler as ``func``.  A flag is
    True when given; any other option reads one value, by ``read_number``
    for a number kind, and checks it against its choices."""
    formatter = lambda prog: argparse.HelpFormatter(prog, width=78)
    program = Parser(
        prog="ghzmetro", description="Exact metrology of GHZ-diagonal bound-entangled states",
        formatter_class=formatter)
    program.add_argument("--version", action="version", version=f"ghzmetro {__version__}")
    listing = program.add_subparsers(dest="command", required=True)
    for command, (func, about, options) in commands.items():
        sub = listing.add_parser(command, help=about, formatter_class=formatter)
        sub.set_defaults(func=func)
        for name, kind, default, required, about in options:
            if kind is bool:
                sub.add_argument(name, action="store_true", help=about)
                continue
            choices = kind if isinstance(kind, tuple) else None
            convert = type(kind[0]) if choices else kind
            sub.add_argument(name, action=StoreOne, default=default, required=required,
                             choices=choices, help=about,
                             type=None if convert is str else number(convert, read_number))
    return program
