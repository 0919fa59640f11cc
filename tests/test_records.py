"""Record parity: every record type keeps the behaviour of a frozen dataclass.

The expected ``repr`` texts were written by the frozen-dataclass versions of
these types, so a change of the record base that alters what a record
prints, compares or hashes fails here.  The JSON the CLI builds from record
fields is pinned in ``test_cli``.
"""
from fractions import Fraction

import pytest

from ghzmetro import DomainError
from ghzmetro.bell import detection_comparison
from ghzmetro.estimation import EstimationRun
from ghzmetro.oracles import PhaseGenerator
from ghzmetro.ptranspose import CertificateResult, CutStatus, QubitSubset
from ghzmetro.qfi import family_report, scaled_k
from ghzmetro.states import GhzDiagonalState, build_rho_nk, build_rho_nkm

F = Fraction


def ghz():
    return GhzDiagonalState(3, {0: F(1, 2), 1: F(1, 4)}, {1: F(1, 4)})


def band():
    return build_rho_nkm(4, 1, 1)


def run():
    return EstimationRun("sector-parity", 0.3, 100, 2, 1, "philox4x64", [0.25, 0.375],
                         0.0625, 0.044194173824159216, 0.125, 2.5, 3.0, (0.1, 0.5))


# (build, repr text, hashable)
RECORDS = {
    "GhzDiagonalState": (
        ghz,
        "GhzDiagonalState(n=3, lambda_plus={0: Fraction(1, 2), 1: Fraction(1, 4)}, "
        "lambda_minus={1: Fraction(1, 4)})",
        False),
    "BandState": (
        band,
        "BandState(n=4, plus=(Fraction(1, 11), Fraction(1, 22), Fraction(1, 11)), "
        "minus=(Fraction(0, 1), Fraction(1, 22), Fraction(1, 11)))",
        True),
    "QubitSubset": (lambda: QubitSubset(4, 0b0110), "QubitSubset(n=4, mask=6)", True),
    "CertificateResult": (
        lambda: CertificateResult(True, None, None),
        "CertificateResult(holds=True, witness_j=None, witness_i=None)", True),
    "CertificateResult-witness": (
        lambda: CertificateResult(False, 3, 1),
        "CertificateResult(holds=False, witness_j=3, witness_i=1)", True),
    "CutStatus": (
        lambda: CutStatus(1, "PPT", None),
        "CutStatus(cut_size=1, status='PPT', witness_mask=None)", True),
    "CutStatus-witness": (
        lambda: CutStatus(cut_size=2, status="NPPT", witness_mask=0b0011),
        "CutStatus(cut_size=2, status='NPPT', witness_mask=3)", True),
    "QfiReport": (
        lambda: family_report(12, 3, m=1),
        "QfiReport(n=12, k=3, f_q=Fraction(2784, 397), snl_ratio=Fraction(232, 397), "
        "lower_bound=None, s_nk=Fraction(79, 299), m=1, a=None, "
        "mixed_lower_bound=Fraction(6, 1), ratio_limit_form=None, ratio_bound_form=None)",
        True),
    "QfiReport-scan-ratio": (
        lambda: family_report(16, scaled_k(F(1, 4), 16), a=F(1, 4)),
        "QfiReport(n=16, k=4, f_q=Fraction(76672, 2517), snl_ratio=Fraction(4792, 2517), "
        "lower_bound=Fraction(256, 17), s_nk=Fraction(697, 2517), m=None, "
        "a=Fraction(1, 4), mixed_lower_bound=None, ratio_limit_form=Fraction(2396, 2517), "
        "ratio_bound_form=Fraction(4792, 2517))",
        True),
    "DetectionRow": (
        lambda: detection_comparison(build_rho_nk(8, 2)),
        "DetectionRow(n=8, f_q=Fraction(352, 37), f_q_over_n=Fraction(44, 37), "
        "hs_norm_sq=1.1636230825420015, verdict='both', planar_sq=Fraction(1152, 1369), "
        "axial_sq=Fraction(441, 1369))", True),
    "EstimationRun": (
        run,
        "EstimationRun(model='sector-parity', theta_true=0.3, shots=100, repetitions=2, "
        "seed=1, rng_algorithm='philox4x64', estimates=[0.25, 0.375], "
        "empirical_std=0.0625, empirical_std_err=0.044194173824159216, crlb=0.125, "
        "fisher_classical=2.5, fisher_quantum=3.0, bracket=(0.1, 0.5))",
        False),
    "PhaseGenerator": (lambda: PhaseGenerator(3), "PhaseGenerator(n=3)", True),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_matches_frozen_dataclass(name):
    build, text, hashable = RECORDS[name]
    record, twin = build(), build()
    assert repr(record) == text
    assert record == twin and not record != twin
    values = tuple(record._asdict().values())
    assert record != values

    class Sub(type(record)):
        pass

    assert Sub(*values) != record and record != Sub(*values)
    with pytest.raises(TypeError, match="missing field"):  # every field is required
        type(record)(*values[:-1])
    if hashable:
        assert hash(record) == hash(twin) == hash(values)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, values[0])
    with pytest.raises(AttributeError):
        delattr(record, first)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, first) is values[0] and repr(record) == text


def test_records_differ_by_field_and_type():
    assert CutStatus(1, "PPT", None) != CutStatus(1, "NPPT", None)
    assert QubitSubset(4, 6) != QubitSubset(4, 5)
    assert CertificateResult(True, None, None) == CertificateResult(
        holds=True, witness_i=None, witness_j=None)
    assert PhaseGenerator(3) != QubitSubset(3, 1) and PhaseGenerator(3) != 3
    assert len({CutStatus(1, "PPT", None), CutStatus(1, "PPT", None),
                CutStatus(2, "PPT", None)}) == 2


@pytest.mark.parametrize("args, kwargs", [
    ((1,), {}),  # a field without default missing
    ((1, "PPT", None, 4), {}),  # one value too many
    ((1, "PPT"), {"status": "NPPT"}),  # a field given twice
    ((1, "PPT"), {"witness": 3}),  # no such field
    ((1, "PPT"), {}),  # the witness missing: no field has a default
])
def test_record_init_refuses_what_a_dataclass_refuses(args, kwargs):
    with pytest.raises(TypeError):
        CutStatus(*args, **kwargs)


def test_post_init_runs_on_every_construction():
    with pytest.raises(DomainError, match="nonempty proper subset"):
        QubitSubset(n=3, mask=0b111)
    with pytest.raises(DomainError, match="sum to 1"):
        GhzDiagonalState(2, {0: F(1, 2)}, {})
