"""The shift-set generators."""

import pytest

from gpylab import primes as prime_engine
from gpylab import sequences
from gpylab.errors import CapacityError, DomainError


def test_interval_sequence():
    assert sequences.generate_sequence("interval", 100, h=5) == [1, 2, 3, 4, 5]
    assert sequences.generate_sequence("interval", 3, h=10) == [1, 2, 3]


def test_interval_guard_at_its_limit(monkeypatch):
    # A list takes 40 bytes per term: 10 terms fit in 400 bytes, 11 do not,
    # and the guard counts min(h, N) terms.
    monkeypatch.setattr(prime_engine, "MAX_TABLE_BYTES", 400)
    assert sequences.generate_sequence("interval", 10, h=10**12) == list(range(1, 11))
    assert sequences.generate_sequence("interval", 10**12, h=10) == list(range(1, 11))
    for N, h in ((11, 11), (11, 10**12), (10**12, 11)):
        with pytest.raises(CapacityError, match="interval"):
            sequences.generate_sequence("interval", N, h=h)


def test_power_sequence():
    assert sequences.generate_sequence("powers_k", 100, k=3) == [3, 9, 27, 81]


def test_sum_two_squares_exponents():
    # Exponents x^2 + y^2 with x, y >= 1: 2, 5, 8, ...
    vals = sequences.generate_sequence("powers_k_sum_two_squares", 2**9, k=2)
    assert vals == [4, 32, 256]


def test_custom_exponents_and_empty_result():
    vals = sequences.generate_sequence("custom_exponents", 100, k=2, exponents=[3, 5, 9])
    assert vals == [8, 32]
    # 2^7 is kept once N reaches it, where N.bit_length() passes 7.
    assert sequences.generate_sequence("custom_exponents", 127, k=2, exponents=[6, 7]) == [64]
    assert sequences.generate_sequence("custom_exponents", 128, k=2, exponents=[6, 7]) == [64, 128]
    assert sequences.generate_sequence("powers_k", 1, k=2) == []


def test_sequence_errors():
    with pytest.raises(DomainError):
        sequences.generate_sequence("nope", 100)
    with pytest.raises(DomainError):
        sequences.generate_sequence("custom_exponents", 100, exponents=[])
    # 2^-1 = 0.5 is not an integer; 2^0 = 1 is.
    with pytest.raises(DomainError, match="exponents"):
        sequences.generate_sequence("custom_exponents", 1000, k=2, exponents=[-1, 2])
    assert sequences.generate_sequence("custom_exponents", 1000, k=2, exponents=[0, 2]) == [1, 4]


def test_density_threshold_monotone():
    assert sequences.density_threshold(10**6) > sequences.density_threshold(10**3)
