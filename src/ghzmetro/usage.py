"""Usage and help text of the command line, formatted from the option table
in ``cli`` as argparse formatted it at 80 columns.

``cli`` imports this module only to print help or a usage error, so a
command line that parses compiles and loads none of it.
"""
from __future__ import annotations

from typing import Sequence

DESCRIPTION = "Exact metrology of GHZ-diagonal bound-entangled states"
WIDTH = 78  # argparse's text width at 80 columns


def invocation(option: tuple) -> str:
    """An option as help lists it: ``--n N``, ``--format {text,json}``, ``--exact``."""
    name, kind = option[:2]
    if name == "--help":
        return "-h, --help"
    if kind is bool:
        return name
    if isinstance(kind, tuple):
        return f"{name} {{{','.join(map(str, kind))}}}"
    return f"{name} {name[2:].replace('-', '_').upper()}"


def usage_text(prog: str, options: Sequence[tuple], commands: dict) -> str:
    """``usage: <prog> ...`` filled to WIDTH, continued under the first option.

    ``options`` starts with help; ``commands`` holds the program's commands,
    or nothing for the usage of one command.
    """
    parts = ["[-h]"]
    for option in options[1:]:
        text = invocation(option)
        parts += text.split() if option[3] else [f"[{text}]"]
    if commands:
        parts.append("{%s} ..." % ",".join(commands))
    lines = [f"usage: {prog}"]
    indent = " " * (len(lines[0]) + 1)
    for part in parts:
        if len(lines[-1]) + 1 + len(part) > WIDTH:
            lines.append(indent + part)
        else:
            lines[-1] += " " + part
    return "\n".join(lines) + "\n"


def help_text(prog: str, options: Sequence[tuple], commands: dict) -> str:
    """The usage, then (for the program) each command, then each option, with
    its help line in a column at most 24 wide."""
    rows = [(2, invocation(option), option[4]) for option in options]
    listed = [(2, "{%s}" % ",".join(commands), None)] if commands else []
    listed += [(4, name, entry[1]) for name, entry in commands.items()]
    column = min(max(indent + len(text) for indent, text, _ in rows + listed) + 2, 24)

    def listing(rows):
        lines = []
        for indent, text, about in rows:
            line = " " * indent + text
            if about:
                fits = len(line) + 2 <= column
                line = (line.ljust(column) if fits else f"{line}\n{'':{column}}") + about
            lines.append(line)
        return "\n".join(lines)

    parts = [usage_text(prog, options, commands).rstrip("\n")]
    if commands:
        parts += [DESCRIPTION, "positional arguments:\n" + listing(listed)]
    return "\n\n".join(parts + ["options:\n" + listing(rows)]) + "\n"
