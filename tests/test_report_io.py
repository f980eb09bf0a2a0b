import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neumannlab import report_io
from neumannlab.report_io import fmt17_cells, fmt17_csv_rows, write_json


def texts(values: np.ndarray) -> list[bytes]:
    """Each value's text as the kernel writes it: its cell without the 0 bytes."""
    return [row[row != 0].tobytes() for row in fmt17_cells(values).view(np.uint8)]


def assert_bytes_of_percent_17g(values) -> None:
    values = np.asarray(values, dtype=float)
    expected = [b"%.17g" % x for x in values.tolist()]
    assert texts(values) == expected
    others = values[::-1].copy()
    rows = b"".join(fmt17_csv_rows(fmt17_cells(values), others))
    assert rows == b"".join(b"%s,%s\r\n" % pair for pair in zip(expected, expected[::-1]))


def edge_values() -> list[float]:
    values = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    values += [1 + 2.0**-17, -(1 + 3 * 2.0**-17), 0.99999999999999999, 99999999999999999.0]
    # one-digit integer parts, with one significant digit and with many
    values += [1e22, -2e22, 5.0, 1e17, 2.5, -7.0000000000000009, 4.9999999999999991e-5, 9.8765432109876543e33]
    for k in range(-200, 201):
        p = float(f"1e{k}")
        values += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    for switch in (1e-5, 1e-4, 1e16, 1e17):
        values += [np.nextafter(switch, 0.0), switch, np.nextafter(switch, np.inf)]
    return values + [-v for v in values]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True), min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_kernel_matches_percent_17g(values):
    assert_bytes_of_percent_17g(values)


def test_kernel_edge_values():
    # signed zeros and subnormals, the extremes, every power of ten in
    # [1e-200, 1e200] with both neighbours, round-half-even ties, carries
    # into the next decade, and the fixed/scientific switch points
    assert_bytes_of_percent_17g(edge_values())


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e12])
def test_kernel_blocks_of_random_values(scale):
    # more values than one block, of every digit count and sign
    rng = np.random.default_rng(11)
    size = 3 * report_io._BLOCK + 5
    values = rng.standard_normal(size) * scale * 10.0 ** rng.integers(-6, 6, size)
    values[::7] = np.round(values[::7], 3)  # few significant digits
    assert_bytes_of_percent_17g(values)


def test_kernel_point_after_integer_parts_of_2_to_17_digits():
    # integer parts of 2 to 17 digits: a column of more than two blocks of them,
    # then a column of two blocks of one-digit or zero integer parts in which
    # only the first row of the first block and the last row of the second
    # block have such a part
    rng = np.random.default_rng(12)
    size = 2 * report_io._BLOCK + 9
    values = rng.uniform(-10.0, 10.0, size) * 10.0 ** rng.integers(1, 17, size)
    values[::3] = np.round(values[::3], 2)
    assert_bytes_of_percent_17g(values)
    values = rng.uniform(-10.0, 10.0, 2 * report_io._BLOCK) * 10.0 ** rng.integers(-30, 1, 2 * report_io._BLOCK)
    values[0], values[-1] = 12.5, -1234567.8901234567
    assert_bytes_of_percent_17g(values)


def test_kernel_hands_ties_and_extremes_to_fmt17(monkeypatch):
    seen = []

    def counting_fmt17(x):
        seen.append(x)
        return f"{x:.17g}"

    monkeypatch.setattr(report_io, "fmt17", counting_fmt17)
    values = [1 + 2.0**-17, -(1 + 3 * 2.0**-17), -0.0, 5e-324, 1e300, 0.1, 2.5]
    assert_bytes_of_percent_17g(values)
    assert set(seen) == {1 + 2.0**-17, -(1 + 3 * 2.0**-17), 0.0, 5e-324, 1e300}


JSON_PAYLOAD = {
    "float": 0.1,
    "np_float64": np.float64(1 / 3),
    "np_float32": np.float32(0.1),
    "int": 7,
    "np_int": np.int64(-3),
    "bool": True,
    "np_bool": np.bool_(False),
    "none": None,
    "text": 'r\u00e9sum\u00e9 "q"',
    "nan": float("nan"),
    "inf": -np.inf,
    "array": np.array([1.5, np.nan, 2e-300]),
    "int_array": np.arange(3),
    "tuple": (1, 2.5, "x", None, np.float64(np.inf)),
    "nested": {"list": [[], {}, [np.float64(1e17), np.bool_(True)]], 3: "int key"},
    "empty": {},
}

JSON_BYTES = b"""{
  "float": 0.10000000000000001,
  "np_float64": 0.33333333333333331,
  "np_float32": 0.10000000149011612,
  "int": 7,
  "np_int": -3,
  "bool": true,
  "np_bool": false,
  "none": null,
  "text": "r\\u00e9sum\\u00e9 \\"q\\"",
  "nan": null,
  "inf": null,
  "array": [1.5, null, 2.0000000000000001e-300],
  "int_array": [0, 1, 2],
  "tuple": [1, 2.5, "x", null, null],
  "nested": {
    "list": [[], {
    }, [1e+17, true]],
    "3": "int key"
  },
  "empty": {
  }
}
"""


def test_write_json_bytes(tmp_path):
    # numpy scalars and bools, arrays, tuples, non-finite floats (null),
    # nested and empty containers and a non-string key, byte for byte
    write_json(tmp_path / "out.json", JSON_PAYLOAD)
    assert (tmp_path / "out.json").read_bytes() == JSON_BYTES
