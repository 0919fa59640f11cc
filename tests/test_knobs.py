"""Knob guard: every settable value of the library is listed here in plain view.

A new defaulted parameter (an option a caller may leave out) or an
environment variable read by the package fails this test until it is
added to ``PINNED`` on purpose.
"""
import importlib
import inspect
from pathlib import Path

import ghzmetro

LIBRARY_MODULES = ("states", "qfi", "ptranspose", "bell", "estimation")

PINNED = {
    "bell.brute_force_tensor(n)",
    "estimation.run_monte_carlo(bracket_halfwidth)",
    "estimation.run_monte_carlo(state_params)",
    "ptranspose.CertificateResult.__init__(witness_i)",
    "ptranspose.CertificateResult.__init__(witness_j)",
    "ptranspose.CutStatus.__init__(witness_mask)",
    "ptranspose.cut_classification(cut_sizes)",
    "qfi.QfiReport.__init__(a)",
    "qfi.QfiReport.__init__(m)",
    "qfi.QfiReport.__init__(mixed_lower_bound)",
    "qfi.QfiReport.__init__(ratio_bound_form)",
    "qfi.QfiReport.__init__(ratio_limit_form)",
    "qfi.family_report(a)",
    "qfi.family_report(m)",
    "qfi.qfi_closed_nk(m)",
    "states.GhzDiagonalState.__init__(lambda_minus)",
    "states.GhzDiagonalState.__init__(lambda_plus)",
    "states._check_family(m)",
    "states.ghz_basis_vector(sign)",
}


def defaulted_parameters(module_name):
    """``module.function(param)`` for each defaulted parameter of the functions
    and methods defined in ``ghzmetro.<module_name>``."""
    module = importlib.import_module(f"ghzmetro.{module_name}")
    functions = []
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            functions.append((name, obj))
        elif inspect.isclass(obj):
            functions += [(f"{name}.{attr}", f) for attr, f in vars(obj).items()
                          if inspect.isfunction(f)]
    return {
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
