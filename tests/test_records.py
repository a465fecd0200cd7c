import pytest

from normdesign.design import strength_profile
from normdesign.harmonic import BasisKind, basis_poly
from normdesign.ring import ring_data
from normdesign.shells import enumerate_shell, shell_from_factorization
from normdesign.theta import HeckeCheck, HeckeReport, hecke_verify


def test_records_are_read_only_values():
    report = strength_profile(3, 691, 6)
    records = {
        "ring": (ring_data(3), "disc"),
        "shell": (enumerate_shell(3, 691), "points"),
        "report": (report, "failing"),
        "failing degree": (report.failing[0], "witness"),
        "hecke report": (hecke_verify(1, 4, 5, 2), "checks"),
        "hecke check": (hecke_verify(1, 4, 5, 2).checks[0], "passed"),
        "basis element": (basis_poly(3, 6, BasisKind.REAL_PART), "poly"),
    }
    for name, (record, field) in records.items():
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None  # no instance dict either
        assert not hasattr(record, "__dict__"), name

    # the two shell routes compare by value; shells of different r differ
    for D, r in [(1, 65), (3, 691), (7, 2 * 11**2), (163, 41**3)]:
        assert enumerate_shell(D, r) == shell_from_factorization(D, r)
    assert enumerate_shell(1, 5) != enumerate_shell(1, 10)
    assert len(enumerate_shell(1, 65).points) == 16
    assert not enumerate_shell(1, 3).points

    # a Shell is its three fields to len, reversed and unpacking alike
    shell = enumerate_shell(1, 5)
    assert len(shell) == len(tuple(shell)) == 3
    assert list(reversed(shell)) == list(reversed(tuple(shell)))
    assert tuple(reversed(shell))[0] is shell.points

    ok = HeckeCheck(identity="i", inputs=(1, 2), left=1, right=1, passed=True)
    bad = HeckeCheck("i", (1, 2), 1, 2, False)
    assert HeckeReport(D=1, j=4, checks=(ok, ok)).all_passed
    assert not HeckeReport(D=1, j=4, checks=(ok, bad)).all_passed
    assert HeckeReport(D=1, j=4, checks=()).all_passed
