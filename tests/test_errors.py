"""The one cap rule: ``errors._capped`` and its digit test."""

import sys

import pytest

from fpsystems.errors import CapExceededError, _capped, _unprintable

PHRASE = "{} points exceed the cap {cap}"


class TestCapped:
    def test_cap_is_inclusive(self):
        assert _capped(10, 10, PHRASE) == 10
        with pytest.raises(CapExceededError,
                           match="^11 points exceed the cap 10$"):
            _capped(11, 10, PHRASE)

    def test_no_phrase_answers_none(self):
        assert _capped(3, 9, None, 2) == 9
        assert _capped(3, 8, None, 2) is None

    def test_count_less_an_offset(self):
        assert _capped(3, 8, PHRASE, 2, 1) == 8
        with pytest.raises(CapExceededError,
                           match="^8 points exceed the cap 7$"):
            _capped(3, 7, PHRASE, 2, 1)

    @pytest.mark.parametrize("base", [0, 1])
    def test_powers_of_zero_and_one(self, base):
        assert _capped(base, 1, PHRASE, 10**12) == base
        assert _capped(base, 1, PHRASE, 0) == 1

    def test_huge_power_decided_unformed(self, deadline, int_digits_4300):
        # 3^(10^12) cannot be formed at all
        with deadline(1):
            assert _capped(3, 10**6, None, 10**12) is None
            with pytest.raises(CapExceededError,
                               match=r"^3\^1000000000000 - 1 points exceed "
                                     r"the cap 1000000$"):
                _capped(3, 10**6, PHRASE, 10**12, 1)

    def test_power_named_only_past_the_digit_limit(self, int_digits_4300):
        with pytest.raises(CapExceededError, match=f"^{10**4299} points"):
            _capped(10, 5, PHRASE, 4299)
        with pytest.raises(CapExceededError, match=r"^10\^4300 points"):
            _capped(10, 5, PHRASE, 4300)
        # 10^4300 - 1 prints, but the rule looks at the power
        with pytest.raises(CapExceededError, match=r"^10\^4300 - 1 points"):
            _capped(10, 5, PHRASE, 4300, 1)


class TestUnprintable:
    def test_digit_limit_of_a_power(self, int_digits_4300):
        assert not _unprintable(10, 4299)
        assert _unprintable(10, 4300)
        assert _unprintable(-10, 4300)
        assert _unprintable(3, 10**12)

    def test_no_limit_prints_everything(self):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert not _unprintable(3, 10**12)
        finally:
            sys.set_int_max_str_digits(previous)
