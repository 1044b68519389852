"""Value semantics of the library's small records: repr text, read-only
fields, equality that agrees with its negation and with hash, and the
defaults and JSON form of the verification reports."""

from fractions import Fraction

import pytest

from krawtchouk import core, gf2, spectral
from krawtchouk import quaternion as qt
from krawtchouk.matrix import CheckReport, SuiteReport


def frozen_records():
    """(equal pair, unequal instance, repr of the first) per frozen record."""
    half = Fraction(1, 2)
    return {
        "KrawtchoukMatrix": (
            core.k_binsum(2), core.k_binsum(2), core.k_binsum(3),
            "KrawtchoukMatrix(order=2, mat=Matrix(integer, 3x3), "
            "method='BinomialSum')"),
        "BinarySubspace": (
            gf2.subspace_from(["0110", "1100"]),
            gf2.subspace_from(["1010", "0110"]),
            gf2.subspace_from(["0110"]),
            "BinarySubspace(n=4, basis=(5, 6))"),
        "EigenFactor": (
            spectral.eigen_factors(1), spectral.eigen_factors(1),
            spectral.eigen_factors(2),
            "EigenFactor(order=1, x=Matrix(root2, 2x2), "
            "e=Matrix(root2, 2x2))"),
        "MinkowskiVector": (
            qt.MinkowskiVector(half, 3, Fraction(-1)),
            qt.MinkowskiVector(half, Fraction(3), -1),
            qt.MinkowskiVector(half, 3, 1),
            "MinkowskiVector(t=Fraction(1, 2), x=3, y=Fraction(-1, 1))"),
    }


FIELDS = {"KrawtchoukMatrix": ("order", "mat", "method"),
          "BinarySubspace": ("n", "basis"),
          "EigenFactor": ("order", "x", "e"),
          "MinkowskiVector": ("t", "x", "y")}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_frozen_records_keep_their_repr(name):
    record, _, _, text = frozen_records()[name]
    assert type(record).__name__ == name
    assert repr(record) == text


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_frozen_records_refuse_assignment(name):
    record = frozen_records()[name][0]
    for field in FIELDS[name]:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        assert getattr(record, field) is before
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_frozen_records_compare_and_hash_consistently(name):
    first, same, other, _ = frozen_records()[name]
    assert first is not same
    assert first == same and not first != same and hash(first) == hash(same)
    assert first != other and not first == other
    assert len({first, same, other}) == 2


def test_check_report_defaults_and_keywords():
    passed = CheckReport(True)
    assert (passed.ok, passed.n, passed.location, passed.lhs, passed.rhs,
            passed.note) == (True, None, None, "", "", "")
    assert passed and repr(passed) == (
        "CheckReport(ok=True, n=None, location=None, lhs='', rhs='', "
        "note='')")
    failed = CheckReport(False, n=3, location=(1, 2), lhs="1", rhs="2",
                         note="K K = 2^n I")
    assert not failed
    assert repr(failed) == ("CheckReport(ok=False, n=3, location=(1, 2), "
                            "lhs='1', rhs='2', note='K K = 2^n I')")
    assert failed == CheckReport(ok=False, note="K K = 2^n I", rhs="2",
                                 lhs="1", location=(1, 2), n=3)
    assert not failed != CheckReport(False, 3, (1, 2), "1", "2",
                                     "K K = 2^n I")
    assert failed != CheckReport(False, n=3) and not failed == passed


def test_suite_report_keeps_the_first_failure_per_check_and_order():
    first, second = SuiteReport("master", 4), SuiteReport("master", 4)
    assert first.failures == [] and first.failures is not second.failures
    assert first.to_dict() == {"suite": "master", "n_max": 4, "pass": True,
                               "failures": []}
    first.record(CheckReport(True, n=2))
    first.record(CheckReport(False, n=3, location=(1, 2), lhs="1", rhs="2",
                             note="K K = 2^n I"))
    first.record(CheckReport(False, n=3, location=(0, 0), lhs="5", rhs="6",
                             note="K K = 2^n I"))
    first.record(CheckReport(False, n=4, note="scalar"))
    assert not first.ok and second.ok and second.failures == []
    assert first.to_dict() == {
        "suite": "master", "n_max": 4, "pass": False, "failures": [
            {"n": 3, "check": "K K = 2^n I", "location": [1, 2],
             "lhs": "1", "rhs": "2"},
            {"n": 4, "check": "scalar", "location": None, "lhs": "",
             "rhs": ""},
        ]}
