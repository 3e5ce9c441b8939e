"""Corner mask tests, including the brute-force oracle equivalence."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cornerclip import masks
from cornerclip.tokenizer import ROLE_CLS, ROLE_CORNER, ROLE_PAD, ROLE_SEP, ROLE_TEXT


def oracle_mask(roles):
    """Direct evaluation of the piecewise rule over all (q, k) pairs."""
    L = len(roles)
    out = np.ones((L, L), dtype=np.int8)
    group = {ROLE_CORNER, ROLE_CLS}
    for q in range(L):
        for k in range(L):
            if q == k:
                continue
            if roles[k] == ROLE_CORNER:
                out[q, k] = 0
            elif roles[q] in group and roles[k] in group:
                out[q, k] = 0
    return out


def layouts(L, m):
    """All valid role layouts of length L with m corners (TEXT/SEP mix varies)."""
    body = L - 1 - m
    if body < 0:
        return
    # enough to vary the number of trailing PADs; TEXT/SEP symmetry is exercised
    # by alternating SEP placement
    for n_pad in range(body + 1):
        content = body - n_pad
        roles = [ROLE_CLS] + [ROLE_CORNER] * m
        for i in range(content):
            roles.append(ROLE_SEP if (i % 3 == 2) else ROLE_TEXT)
        roles += [ROLE_PAD] * n_pad
        yield np.array(roles)


def test_golden_six_by_six():
    roles = np.array([ROLE_CLS, ROLE_CORNER, ROLE_CORNER, ROLE_TEXT, ROLE_TEXT, ROLE_SEP])
    expected = np.array([
        [1, 0, 0, 1, 1, 1],
        [0, 1, 0, 1, 1, 1],
        [0, 0, 1, 1, 1, 1],
        [1, 0, 0, 1, 1, 1],
        [1, 0, 0, 1, 1, 1],
        [1, 0, 0, 1, 1, 1],
    ])
    np.testing.assert_array_equal(masks.build_corner_mask(roles), expected)
    np.testing.assert_array_equal(oracle_mask(roles), expected)


def test_m_zero_all_ones():
    roles = np.array([ROLE_CLS, ROLE_TEXT, ROLE_TEXT, ROLE_SEP])
    np.testing.assert_array_equal(masks.build_corner_mask(roles), np.ones((4, 4)))


def test_golden_three_by_three():
    roles = np.array([ROLE_CLS, ROLE_CORNER, ROLE_TEXT])
    expected = np.array([[1, 0, 1], [0, 1, 1], [1, 0, 1]])
    np.testing.assert_array_equal(masks.build_corner_mask(roles), expected)
    np.testing.assert_array_equal(oracle_mask(roles), expected)


def test_oracle_equivalence_all_small_layouts():
    for L in range(1, 17):
        for m in range(0, 5):
            for roles in layouts(L, m):
                np.testing.assert_array_equal(
                    masks.build_corner_mask(roles), oracle_mask(roles))


def test_malformed_layout_rejected():
    with pytest.raises(ValueError):
        masks.build_corner_mask(np.array([ROLE_TEXT, ROLE_CLS]))
    with pytest.raises(ValueError):
        masks.build_corner_mask(np.array([ROLE_CLS, ROLE_TEXT, ROLE_CORNER]))
    with pytest.raises(ValueError):
        masks.build_corner_mask(np.array([ROLE_CLS, ROLE_PAD, ROLE_TEXT]))


def test_register_mode_all_ones():
    roles = np.array([ROLE_CLS, ROLE_CORNER, ROLE_CORNER, ROLE_TEXT, ROLE_SEP])
    np.testing.assert_array_equal(
        masks.full_mask(roles, "full"), np.ones((5, 5)))


def test_corner_isolation_reachability():
    """No directed path from a corner node to any non-corner node."""
    for m in (1, 2, 4):
        roles = np.array([ROLE_CLS] + [ROLE_CORNER] * m + [ROLE_TEXT] * 5 + [ROLE_SEP])
        mask = masks.build_corner_mask(roles)
        L = len(roles)
        # edge k -> q iff mask[q, k] == 1; propagate reachability from corners
        reach = np.zeros(L, dtype=bool)
        reach[1:1 + m] = True
        for _ in range(L):
            new = reach.copy()
            for q in range(L):
                for k in range(L):
                    if q != k and mask[q, k] and reach[k]:
                        new[q] = True
            if np.array_equal(new, reach):
                break
            reach = new
        assert not reach[0]
        assert not reach[1 + m:].any()


class TestApplyPadding:
    """full_mask's padding: every PAD key is read by itself only."""

    def test_no_pad_identity(self):
        roles = np.array([ROLE_CLS, ROLE_CORNER, ROLE_TEXT, ROLE_SEP])
        np.testing.assert_array_equal(masks.full_mask(roles, "corner"),
                                      masks.build_corner_mask(roles))

    def test_pad_columns_zeroed_except_diagonal(self):
        roles = np.array([ROLE_CLS, ROLE_TEXT, ROLE_SEP, ROLE_PAD, ROLE_PAD])
        out = masks.full_mask(roles, "corner")
        assert out[:, 3].tolist() == [0, 0, 0, 1, 0]
        assert out[:, 4].tolist() == [0, 0, 0, 0, 1]

    def test_combined_equals_elementwise_and(self):
        roles = np.array([ROLE_CLS, ROLE_CORNER, ROLE_TEXT, ROLE_SEP, ROLE_PAD, ROLE_PAD])
        pad_only = np.ones((6, 6), np.int8)
        pad = roles == ROLE_PAD
        pad_only[:, pad] = 0
        idx = np.where(pad)[0]
        pad_only[idx, idx] = 1
        for mode, base in (("corner", masks.build_corner_mask(roles)),
                           ("full", np.ones((6, 6), np.int8))):
            np.testing.assert_array_equal(masks.full_mask(roles, mode), base & pad_only)

    def test_non_pad_query_rows_never_all_zero(self):
        roles = np.array([ROLE_CLS, ROLE_CORNER, ROLE_CORNER, ROLE_TEXT, ROLE_PAD])
        out = masks.full_mask(roles, "corner")
        for q in range(4):
            assert out[q].sum() >= 1


def test_mask_bias_values():
    mask = np.array([[1, 0], [0, 1]])
    bias = masks.mask_bias(mask)
    np.testing.assert_array_equal(bias, [[0.0, -1e9], [-1e9, 0.0]])


def test_format_mask_grid():
    mask = np.array([[1, 0], [0, 1]])
    assert masks.format_mask(mask) == "1 0\n0 1"


LAYOUT_RE = re.compile(r"C K* [TS]* P*".replace(" ", ""))
ROLE_LETTERS = {ROLE_CLS: "C", ROLE_CORNER: "K", ROLE_TEXT: "T", ROLE_SEP: "S", ROLE_PAD: "P"}


def test_layout_check_is_the_grammar_on_every_short_row():
    """validate_role_layout against LAYOUT_RE over every row of length 1-5 with
    values -1..5, messages included: a value outside the roles matches no letter
    and is refused, never read as some role's place."""
    checked = 0
    for L in range(1, 6):
        for row in itertools.product(range(-1, 6), repeat=L):
            checked += 1
            if LAYOUT_RE.fullmatch("".join(ROLE_LETTERS.get(v, "?") for v in row)):
                masks.validate_role_layout(np.array(row))
                continue
            expected = ("position 0 must be CLS" if row[0] != ROLE_CLS
                        else "malformed role layout")
            with pytest.raises(ValueError) as err:
                masks.validate_role_layout(np.array(row))
            assert str(err.value) == expected, row
    assert checked == 19_607


def oracle_full_mask(roles, mode):
    """Per-position rule plus padding, written out independently of masks.py."""
    out = oracle_mask(roles) if mode == "corner" else np.ones((len(roles),) * 2, np.int8)
    for q in range(len(roles)):
        for k in range(len(roles)):
            if roles[k] == ROLE_PAD and q != k:
                out[q, k] = 0
    return out


@st.composite
def role_batches(draw):
    """A (B, L) batch of valid layouts: CLS, m corners, a TEXT/SEP mix, then PADs."""
    B = draw(st.integers(1, 4))
    L = draw(st.integers(1, 12))
    rows = []
    for _ in range(B):
        m = draw(st.integers(0, L - 1))
        content = draw(st.integers(0, L - 1 - m))
        body = draw(st.lists(st.sampled_from([ROLE_TEXT, ROLE_SEP]),
                             min_size=content, max_size=content))
        rows.append([ROLE_CLS] + [ROLE_CORNER] * m + body + [ROLE_PAD] * (L - 1 - m - content))
    return np.array(rows, dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(roles=role_batches(), mode=st.sampled_from(["corner", "full"]))
def test_batched_bias_equals_per_sequence(roles, mode):
    batched = masks.mask_bias(masks.full_mask(roles, mode))
    per_seq = np.stack([masks.mask_bias(masks.full_mask(r, mode)) for r in roles])
    np.testing.assert_array_equal(batched, per_seq)
    for r, got in zip(roles, masks.full_mask(roles, mode)):
        np.testing.assert_array_equal(got, oracle_full_mask(r, mode))


@settings(max_examples=150, deadline=None)
@given(roles=role_batches(), mode=st.sampled_from(["corner", "full"]), data=st.data())
def test_batch_with_one_malformed_layout_raises_like_the_sequence(roles, mode, data):
    B, L = roles.shape
    row = data.draw(st.integers(0, B - 1))
    pos = data.draw(st.integers(0, L - 1))
    roles = roles.copy()
    roles[row, pos] = data.draw(st.sampled_from(sorted(ROLE_LETTERS)))
    assume(not LAYOUT_RE.fullmatch("".join(ROLE_LETTERS[int(v)] for v in roles[row])))
    expected = "position 0 must be CLS" if roles[row, 0] != ROLE_CLS else "malformed role layout"
    with pytest.raises(ValueError) as single:
        masks.full_mask(roles[row], mode)
    assert str(single.value) == expected
    with pytest.raises(ValueError) as batch:
        masks.full_mask(roles, mode)
    assert str(batch.value) == expected
