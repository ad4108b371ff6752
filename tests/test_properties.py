"""Property tests: sum-code membership kernels and certificate text."""

from math import prod

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prodexp.codes import full_code, repetition, rs_primitive
from prodexp.expansion import ExpansionCertificate, certify_upper_bound
from prodexp.gf_poly import field_make
from prodexp.tensor import (
    CodeFamily,
    TensorWord,
    _check_poly_kernel,
    _dual_tensor_kernel,
    encode_direction,
)

F2 = field_make(1)
F4 = field_make(2)
F16 = field_make(4)
C31 = rs_primitive(F4, 1, 3)

# reproducible runs that write no example database
REPRODUCIBLE = settings(database=None, derandomize=True, deadline=None)

EQUAL_LENGTH_FAMILIES = [
    CodeFamily.power(repetition(F2, 2), 2),
    CodeFamily.power(repetition(F2, 2), 3),
    CodeFamily.power(C31, 2),
    CodeFamily.power(C31, 3),
    CodeFamily((C31, full_code(F4, 3))),
    CodeFamily.power(rs_primitive(F16, 1, 3), 2),
]


def _symbols(family: CodeFamily, count: int):
    return st.lists(
        st.integers(0, family.field.order - 1), min_size=count, max_size=count
    ).map(lambda vals: np.array(vals, dtype=np.uint8))


@st.composite
def words(draw, family: CodeFamily) -> TensorWord:
    arr = draw(_symbols(family, prod(family.shape)))
    return TensorWord(family.field, arr.reshape(family.shape))


@st.composite
def sum_code_words(draw, family: CodeFamily) -> TensorWord:
    """a_1 + ... + a_m with a_i in C^(i), from drawn messages."""
    total = np.zeros(family.shape, dtype=np.uint8)
    for axis, code in enumerate(family.codes):
        msg_shape = list(family.shape)
        msg_shape[axis] = code.dimension
        msgs = draw(_symbols(family, prod(msg_shape))).reshape(msg_shape)
        total ^= encode_direction(code, msgs, axis).data
    return TensorWord(family.field, total)


@st.composite
def family_and_word(draw, families, word_strategy):
    family = draw(st.sampled_from(families))
    return family, draw(word_strategy(family))


@REPRODUCIBLE
@given(family_and_word(EQUAL_LENGTH_FAMILIES, words))
def test_membership_kernels_agree_on_random_words(case):
    family, word = case
    batch = word.data[None]
    assert _check_poly_kernel(batch, family)[0] == _dual_tensor_kernel(batch, family)[0]


@REPRODUCIBLE
@given(family_and_word(EQUAL_LENGTH_FAMILIES, sum_code_words))
def test_membership_kernels_accept_sum_code_words(case):
    family, word = case
    batch = word.data[None]
    assert _check_poly_kernel(batch, family)[0]
    assert _dual_tensor_kernel(batch, family)[0]


CERTIFICATE_FAMILIES = [
    CodeFamily.power(repetition(F2, 2), 2),
    CodeFamily.power(C31, 3),
]


@REPRODUCIBLE
@given(family_and_word(CERTIFICATE_FAMILIES, sum_code_words))
def test_certificate_text_roundtrip(case):
    family, word = case
    assume(word.weight() > 0)  # the zero word certifies nothing
    cert = certify_upper_bound(word, family)
    assert ExpansionCertificate.from_text(cert.to_text()) == cert
