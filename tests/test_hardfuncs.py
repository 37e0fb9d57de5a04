"""Reference hard functions: the selector, odd-max-bit, and the composition."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relucirc import ArityError, andreev_input_size, andreev_layout
from relucirc.hardfuncs import (
    AndreevInput,
    ComposedParams,
    andreev,
    arkadev_nikhil,
    composed_function,
    omb,
)


# independent straight-line re-implementations used as oracles

def selector_oracle(n, bits):
    half, rows, cols = andreev_layout(n)
    x = bits[:half]
    index = 0
    for i in range(rows):
        row = bits[half + i * cols : half + (i + 1) * cols]
        index = 2 * index + sum(row) % 2
    return x[index]


def omb_threshold_oracle(x):
    total = 0
    for i, xi in enumerate(x, start=1):
        total += (-1) ** (i + 1) * (1 << i) * (1 + xi)
    return -1 if 2 * total >= 1 else 1


def omb_highest_bit_oracle(x):
    highest = 0
    for i, xi in enumerate(x, start=1):
        if xi == 1:
            highest = i
    return -1 if highest % 2 == 1 else 1


def composition_oracle(k, b, x, y):
    u = []
    for i in range(k):
        block_true = False
        for j in range(b):
            if -x[i * b + j] * y[i * b + j] == 1:
                block_true = True
        u.append(1 if block_true else -1)
    return omb_highest_bit_oracle(u)


# ---------------------------------------------------------------------------
# layout

def test_layout_dimensions():
    assert andreev_layout(8) == (4, 2, 2)
    assert andreev_layout(16) == (8, 3, 2)
    assert andreev_layout(32) == (16, 4, 4)
    assert andreev_input_size(8) == 8
    assert andreev_input_size(16) == 14
    assert andreev_input_size(32) == 32


def test_layout_needs_at_least_one_row():
    with pytest.raises(ArityError):
        andreev_layout(2)


def test_input_dimensions_are_enforced():
    with pytest.raises(ArityError):
        AndreevInput(8, (0, 1, 0), ((0, 0), (0, 0)))
    with pytest.raises(ArityError):
        AndreevInput(8, (0, 1, 0, 1), ((0, 0),))
    with pytest.raises(ArityError):
        AndreevInput(8, (0, 1, 0, 2), ((0, 0), (0, 0)))


# ---------------------------------------------------------------------------
# the selector

def test_all_zero_matrix_selects_x0():
    for x0 in (0, 1):
        inp = AndreevInput(8, (x0, 1, 0, 1), ((0, 0), (0, 0)))
        assert andreev(inp) == x0


def test_row_parities_one_one_select_x3():
    # parities (1,1) read most-significant-first give index 3
    inp = AndreevInput(8, (0, 0, 0, 1), ((1, 0), (0, 1)))
    assert andreev(inp) == 1
    inp = AndreevInput(8, (1, 1, 1, 0), ((1, 0), (0, 1)))
    assert andreev(inp) == 0


def test_selector_against_oracle_at_n16():
    rng = random.Random(161)
    size = andreev_input_size(16)
    for _ in range(1000):
        bits = [rng.randint(0, 1) for _ in range(size)]
        assert andreev(AndreevInput.from_bits(16, bits)) == selector_oracle(16, bits)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_only_the_selected_bit_matters(data):
    n = data.draw(st.sampled_from([8, 16, 32]))
    size = andreev_input_size(n)
    half, rows, cols = andreev_layout(n)
    bits = data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    inp = AndreevInput.from_bits(n, bits)
    out = andreev(inp)
    selected = 0
    for i in range(rows):
        selected = 2 * selected + sum(inp.rows[i]) % 2
    flip = data.draw(st.integers(0, half - 1))
    if flip != selected:
        flipped = list(bits)
        flipped[flip] ^= 1
        assert andreev(AndreevInput.from_bits(n, flipped)) == out


def test_from_bits_round_trip():
    bits = [1, 0, 1, 1, 0, 1, 1, 0]
    inp = AndreevInput.from_bits(8, bits)
    assert inp.x == (1, 0, 1, 1)
    assert inp.rows == ((0, 1), (1, 0))


# ---------------------------------------------------------------------------
# odd-max-bit

def test_omb_all_minus_one_is_true():
    assert omb((-1, -1, -1)) == 1


def test_omb_single_plus_at_position_one():
    assert omb((1, -1, -1)) == -1


def test_omb_single_plus_at_position_two():
    assert omb((-1, 1, -1)) == 1


@pytest.mark.parametrize("n", range(1, 13))
def test_omb_two_forms_agree_exhaustively(n):
    for mask in range(1 << n):
        x = tuple(1 if (mask >> i) & 1 else -1 for i in range(n))
        want = omb_threshold_oracle(x)
        assert want == omb_highest_bit_oracle(x)
        assert omb(x) == want


def test_omb_rejects_non_sign_entries():
    with pytest.raises(ArityError):
        omb((1, 0, -1))


# ---------------------------------------------------------------------------
# the composed function

def test_equal_halves_compose_to_true():
    p = ComposedParams(3, 2)
    x = (1, -1, 1, 1, -1, -1)
    assert arkadev_nikhil(p, x, x) == 1


def test_hand_composed_case():
    p = ComposedParams(2, 1)
    assert arkadev_nikhil(p, (-1, -1), (1, -1)) == -1


def test_composition_against_oracle_exhaustively():
    p = ComposedParams(3, 2)
    f = composed_function(p)
    for xm in range(1 << 6):
        x = tuple(1 if (xm >> i) & 1 else -1 for i in range(6))
        for ym in range(1 << 6):
            y = tuple(1 if (ym >> i) & 1 else -1 for i in range(6))
            assert f(x, y) == composition_oracle(3, 2, x, y)


@given(st.integers(1, 4), st.integers(1, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_composition_is_symmetric_in_its_halves(k, b, data):
    p = ComposedParams(k, b)
    bits = st.lists(st.sampled_from((-1, 1)), min_size=k * b, max_size=k * b)
    x = tuple(data.draw(bits))
    y = tuple(data.draw(bits))
    assert arkadev_nikhil(p, x, y) == arkadev_nikhil(p, y, x)


def test_composition_rejects_wrong_lengths():
    p = ComposedParams(2, 2)
    with pytest.raises(ArityError):
        arkadev_nikhil(p, (1, 1, 1), (1, 1, 1, 1))


def test_params_validate_and_report_side_bits():
    with pytest.raises(ArityError):
        ComposedParams(0, 1)
    assert ComposedParams(3, 2).side_bits == 6


def test_asymptotic_scale_is_metadata_only():
    p = ComposedParams.asymptotic_scale(64)
    assert p.blocks == 64
    assert p.block_width >= 1
