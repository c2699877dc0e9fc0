"""Property tests for the dataset CSV reader and writer."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from survscreen.dataio import read_dataset, write_dataset
from survscreen.screening import SurvivalDataset

finite = st.floats(allow_nan=False, allow_infinity=False)
edge_values = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                               1.7976931348623157e308, -1.7976931348623157e308])


@settings(max_examples=100, deadline=None)
@given(
    st.data(),
    st.integers(min_value=3, max_value=6),
    st.integers(min_value=1, max_value=4),
)
def test_finite_doubles_round_trip_bit_for_bit(tmp_path_factory, data, n, p):
    times = data.draw(arrays(np.float64, n, elements=st.one_of(
        st.floats(min_value=0.0, allow_infinity=False), st.just(-0.0))))
    status = data.draw(arrays(np.int8, n, elements=st.sampled_from([0, 1])))
    covariates = data.draw(arrays(np.float64, (n, p), elements=st.one_of(finite, edge_values)))
    path = tmp_path_factory.mktemp("rt") / "d.csv"
    write_dataset(path, SurvivalDataset(times=times, status=status, covariates=covariates))
    back = read_dataset(path)
    assert back.times.tobytes() == times.tobytes()
    assert back.status.tobytes() == status.tobytes()
    assert back.covariates.tobytes() == covariates.tobytes()


def _float_or_none(token):
    try:
        return float(token)
    except ValueError:
        return None


numeric_text = st.from_regex(r"\A[ \t +\-]*[0-9_.eE٠-٩]*(inf|nan)?[ \t]*\Z")
tokens = st.lists(st.one_of(st.text(), numeric_text, finite.map(repr)), min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(tokens)
def test_numpy_row_cast_raises_or_matches_float_bitwise(fields):
    # read_dataset casts a whole row of fields at once and trusts every
    # value the cast accepts, so the cast must never accept a token that
    # float() rejects nor read one differently.
    row = np.empty(len(fields))
    try:
        row[:] = fields
    except ValueError:
        return
    expected = [_float_or_none(token) for token in fields]
    assert None not in expected
    assert row.tobytes() == np.array(expected).tobytes()
