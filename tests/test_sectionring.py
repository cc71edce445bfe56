from __future__ import annotations

import pytest

from raynaudsurf import (
    Cert,
    h_surface,
    local_cohomology,
    local_cohomology_report,
)

from conftest import PS1, PS2, PS3, PS4, nonzero_negative_degrees, result1_range


def test_low_indices_always_vanish():
    for params in (PS1, PS2, PS3, PS4):
        for n in range(-12, 13):
            assert local_cohomology(params, 0, n) == Cert.exact(0)
            assert local_cohomology(params, 1, n) == Cert.exact(0)


def test_top_pieces_delegate_to_surface():
    for n in range(-6, 7):
        assert local_cohomology(PS1, 2, n) == h_surface(PS1, 1, n)
        assert local_cohomology(PS1, 3, n) == h_surface(PS1, 2, n)


def test_kodaira_failure_shows_in_degree_minus_one():
    assert local_cohomology(PS1, 2, -1) == Cert.exact(1)


def test_top_local_cohomology_vanishes_high():
    # [H^3_m]_n = h^2(X, Z^n) dies from p(p+1) on; for PS1 that is n >= 6.
    for n in range(6, 13):
        assert local_cohomology(PS1, 3, n) == Cert.exact(0)


def test_j_out_of_range():
    with pytest.raises(ValueError):
        local_cohomology(PS1, 4, 0)


def test_nonzero_negative_degrees_match_window(sweep_small):
    assert nonzero_negative_degrees(PS1) == [-1]
    assert nonzero_negative_degrees(PS2) == [-1]
    assert nonzero_negative_degrees(PS3) == [-2, -1]
    for f in sweep_small:
        if f.p in (2, 3):
            assert nonzero_negative_degrees(f) == result1_range(f), f


def test_report_structure_and_json():
    report = local_cohomology_report(PS1, -3, 2)
    assert set(report.pieces) == {(j, n) for j in range(4) for n in range(-3, 3)}
    blob = report.to_json()
    assert blob["dimR"] == 3
    assert blob["pieces"]["2,-1"] == {"kind": "exact", "lo": 1, "hi": 1}
    assert blob["pieces"]["0,-3"] == {"kind": "exact", "lo": 0, "hi": 0}
    assert list(blob["pieces"]) == sorted(blob["pieces"], key=lambda s: tuple(map(int, s.split(","))))
    with pytest.raises(ValueError):
        local_cohomology_report(PS1, 3, -3)
