"""Property tests of the bulk occupation formatter behind sample and distribution files.

The oracle is the per-entry Python join ``sep.join(map(str, row))``, one
line per row. Examples are drawn deterministically (``derandomize=True``),
so every run checks the same cases.
"""

import io as textio
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonsim import io

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)


@st.composite
def occupation_rows(draw):
    """0-12 rows over 1-40 modes of occupations 0-30, as uint8 (sampled) or int64 (tuples)."""
    modes = draw(st.integers(1, 40))
    top = draw(st.sampled_from([0, 1, 9, 10, 30]))
    rows = draw(st.lists(st.lists(st.integers(0, top), min_size=modes, max_size=modes),
                         max_size=12))
    dtype = draw(st.sampled_from([np.uint8, np.int64]))
    return np.array(rows, dtype).reshape(len(rows), modes)


def _oracle(rows, sep):
    return "".join(sep.join(map(str, row)) + "\n" for row in rows.tolist())


@PROPERTY_SETTINGS
@given(occupation_rows(), st.sampled_from([",", " "]))
def test_text_rows_matches_the_python_join(rows, sep):
    assert io._text_rows(rows, sep) == _oracle(rows, sep)


@PROPERTY_SETTINGS
@given(occupation_rows(), st.integers(1, 7), st.booleans())
def test_write_samples_matches_the_python_join_across_chunks(rows, chunk, as_tuples):
    stream = textio.StringIO()
    states = list(map(tuple, rows.tolist())) if as_tuples else rows
    with mock.patch.object(io, "SAMPLE_WRITE_CHUNK", chunk):
        io.write_samples(stream, states)
    assert stream.getvalue() == _oracle(rows, ",")
