"""Knob guard: every settable value of the library is listed here in plain view.

A new defaulted parameter (an option a caller may leave out) or an
environment variable read by the package fails this test until it is
added to ``PINNED`` on purpose.  Likewise a new package export fails until
it is added to ``EXPORTS``, so a name that only tests call is a visible edit,
and a new public method of a state type fails until it is added to
``STATE_METHODS``.  The command line is pinned the same way: a new flag
fails until it is added to ``CLI_OPTIONS``.
"""
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import ghzmetro
from ghzmetro.commands import COMMANDS, read_number
from ghzmetro.states import _Record
from ghzmetro.usage import parser

LIBRARY_MODULES = ("states", "qfi", "ptranspose", "bell", "oracles", "estimation")

PINNED = {
    "estimation.run_monte_carlo(bracket_halfwidth)",
    "ptranspose.cut_classification(cut_sizes)",
    "qfi.family_report(a)",
    "qfi.family_report(m)",
    "qfi.qfi_closed_nk(m)",
}

EXPORTS = {
    # states
    "BandState", "GhzDiagonalState", "build_rho_nk", "build_rho_nkm",
    "canonical_index", "ghz_state", "maximally_mixed_state", "weight",
    # ptranspose
    "CutStatus", "QubitSubset", "cut_classification",
    "ppt_single_qubit_certificate",
    # qfi
    "QfiReport", "family_report", "qfi_closed_nk", "qfi_ghz_diagonal", "scaled_k",
    # bell
    "DetectionRow", "detection_comparison",
    # oracles
    "PhaseGenerator", "brute_force_tensor", "hs_norm_sq_exact", "pt_dense_oracle",
    "pt_spectrum", "qfi_from_dense", "to_dense",
    # estimation
    "RNG_ALGORITHM", "EstimationRun", "classical_fisher", "get_model", "run_monte_carlo",
    # errors
    "CrossCheckError", "DomainError", "GhzmetroError", "LikelihoodDegeneracyError",
    "SizeLimitError",
}

# both state types are read through classes() and the one sector walk sectors()
STATE_METHODS = {"classes", "sectors", "trace"}

# option strings of the program and of each subcommand
FAMILY = {"--n", "--k", "--m"}
COMMON = {"-h", "--help", "--output", "--no-timestamp"}
CLI_OPTIONS = {
    "ghzmetro": {"-h", "--help", "--version"},
    "state": COMMON | FAMILY | {"--format"},
    "qfi": COMMON | FAMILY | {"--exact", "--a", "--oracle", "--format"},
    "ppt": COMMON | FAMILY | {"--cuts", "--oracle", "--format"},
    "bell": COMMON | FAMILY | {"--exact", "--oracle", "--components", "--format"},
    "estimate": COMMON | FAMILY | {"--theta", "--shots", "--reps", "--seed", "--model",
                                   "--bracket"},
    "figure": COMMON | {"--id", "--k", "--a", "--n", "--exact"},
}


def defaulted_parameters(module_name):
    """``module.function(param)`` for each defaulted parameter of the functions
    and methods defined in ``ghzmetro.<module_name>``.  A record's defaulted
    field is a parameter of its ``__init__``, which the record base supplies."""
    module = importlib.import_module(f"ghzmetro.{module_name}")
    functions, found = [], set()
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            functions.append((name, obj))
        elif inspect.isclass(obj):
            functions += [(f"{name}.{attr}", f) for attr, f in vars(obj).items()
                          if inspect.isfunction(f)]
            if issubclass(obj, _Record):  # a class attribute named after a field
                found |= {f"{module_name}.{name}.__init__({field})"
                          for field in obj._fields if hasattr(obj, field)}
    return found | {
        f"{module_name}.{name}({p.name})"
        for name, fn in functions
        for p in inspect.signature(fn).parameters.values()
        if p.default is not inspect.Parameter.empty
    }


def test_options_are_pinned_and_environment_is_not_read():
    found = set().union(*(defaulted_parameters(m) for m in LIBRARY_MODULES))
    assert found == PINNED
    for path in Path(ghzmetro.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert "environ" not in text and "getenv" not in text, path.name


def test_only_oracles_import_numpy():
    # the exact routes stay in rationals; sampling runs its own Philox stream,
    # so numpy belongs to the oracles alone
    importers = {path.name for path in Path(ghzmetro.__file__).parent.glob("*.py")
                 if re.search(r"^(import|from) numpy\b", path.read_text(), re.M)}
    assert importers == {"oracles.py"}


def test_no_module_imports_typing():
    # annotations are builtin generics, written under postponed evaluation
    importers = {path.name for path in Path(ghzmetro.__file__).parent.glob("*.py")
                 if re.search(r"^(import|from) typing\b", path.read_text(), re.M)}
    assert importers == set()


def test_every_annotation_resolves():
    # postponed annotations are strings that nothing evaluates until a reader
    # asks: each must name something its module can see
    for path in sorted(Path(ghzmetro.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"ghzmetro.{path.stem}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [obj]
            if inspect.isclass(obj):
                members += [getattr(f, "__func__", f) for f in vars(obj).values()]
            for member in members:
                if inspect.isfunction(member) or inspect.isclass(member):
                    typing.get_type_hints(member)  # NameError names the unresolved one


def test_cli_options_are_pinned():
    # the option strings of the program's parser and of each command's
    # subparser, which argparse builds from the one option table
    def option_strings(built):
        return {option for action in built._actions for option in action.option_strings}

    program = parser(COMMANDS, read_number)
    listing, = (action for action in program._actions if action.dest == "command")
    found = {"ghzmetro": option_strings(program)}
    found.update((command, option_strings(sub)) for command, sub in listing.choices.items())
    assert found == CLI_OPTIONS


def test_package_exports_are_pinned():
    # dir(), not vars(): every export is imported on first use
    exported = {name for name in dir(ghzmetro)
                if not name.startswith("_") and not inspect.ismodule(getattr(ghzmetro, name))}
    assert exported == EXPORTS
    assert set(ghzmetro.__all__) == EXPORTS
    for module, names in ghzmetro._EXPORTS.items():
        defined = importlib.import_module(f"ghzmetro.{module}")
        for name in names:
            assert getattr(ghzmetro, name) is getattr(defined, name), name


def test_state_methods_are_pinned():
    for cls in (ghzmetro.GhzDiagonalState, ghzmetro.BandState):
        public = {name for name, _ in inspect.getmembers(cls, inspect.isfunction)
                  if not name.startswith("_")}
        assert public == STATE_METHODS, cls.__name__


def fresh_interpreter(probe):
    """What ``probe`` prints in a new interpreter, where no ghzmetro module is loaded yet."""
    src = str(Path(ghzmetro.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src)).stdout


def test_star_import_binds_every_export():
    out = fresh_interpreter("import json\nfrom ghzmetro import *\nprint(json.dumps(dir()))")
    assert EXPORTS <= set(json.loads(out))


def test_package_import_loads_no_submodule():
    # each export loads its module on first use, so the CLI's --version loads none
    out = fresh_interpreter("import json, sys, ghzmetro\n"
                            "print(json.dumps(sorted(sys.modules)))")
    assert [name for name in json.loads(out) if name.startswith("ghzmetro.")] == []


def test_oracles_import_loads_no_bell():
    # an oracle calls none of the routes it checks: the Bell oracle reads the
    # axial term off sectors() itself
    out = fresh_interpreter("import json, sys, ghzmetro.oracles\n"
                            "print(json.dumps(sorted(sys.modules)))")
    assert "ghzmetro.bell" not in json.loads(out)
