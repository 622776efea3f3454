"""write_csv against np.savetxt(fmt="%.17g"), byte for byte."""

import ast
import io
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dosc import csvio
from dosc.csvio import write_csv

ROOT = Path(__file__).resolve().parent.parent


def savetxt_bytes(columns, header):
    buf = io.BytesIO()
    np.savetxt(buf, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=header, comments="")
    return buf.getvalue()


def check(path, columns, header="a"):
    """write_csv's bytes are np.savetxt's, with no warning raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_csv(path, header, columns)
    assert path.read_bytes() == savetxt_bytes(columns, header)


def from_bits(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


def neighbours(values, ulps=3):
    """Each value and the ``ulps`` doubles on either side of it."""
    out = []
    for v in values:
        below = above = v
        out.append(v)
        for _ in range(ulps):
            with np.errstate(over="ignore"):   # past the largest double
                below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
            out += [below, above]
    return np.array(out)


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    return tmp_path_factory.mktemp("csvio") / "table.csv"


# raw bit patterns, plus every exponent field with edge mantissas: zeros,
# subnormals, infinities and NaNs with payloads and either sign
BITS = st.one_of(
    st.integers(0, 2 ** 64 - 1),
    st.builds(lambda sign, exp, mant: sign << 63 | exp << 52 | mant,
              st.integers(0, 1), st.sampled_from([0, 1, 2046, 2047]) | st.integers(0, 2047),
              st.sampled_from([0, 1, 2 ** 51, 2 ** 52 - 1]) | st.integers(0, 2 ** 52 - 1)),
)


@settings(max_examples=300)
@given(st.integers(1, 5).flatmap(
    lambda n_cols: st.lists(st.lists(BITS, min_size=n_cols, max_size=n_cols),
                            min_size=1, max_size=30)))
def test_random_bit_patterns(table, rows):
    values = from_bits(rows)
    check(table, list(values.T), header=",".join("c%d" % j for j in range(values.shape[1])))


def test_exact_halfway_values(table):
    # odd a / 2^18 in [0.1, 1) has exactly 18 significant digits, the
    # last a 5: "%.17g" must round half to even
    x = np.arange(26215, 2 ** 18, 2) / 2 ** 18
    assert all(len(Decimal(v).as_tuple().digits) == 18 for v in x[::97])
    check(table, [x, -x])


def test_values_next_to_powers_of_ten(table):
    tens = [float(Fraction(10) ** n) for n in range(-323, 309)]
    check(table, [neighbours(tens)])


def test_values_rounding_up_to_the_next_power(table):
    # the largest double below 10^n whose 17 digits round up to 10^n
    # carries into the exponent
    ups = []
    for n in range(-300, 309):
        p = Fraction(10) ** n
        x = float(p)
        if Fraction(x) >= p:
            x = float(np.nextafter(x, 0.0))
        if Fraction(x) * 10 ** (17 - n) >= 10 ** 17 - Fraction(1, 2):
            ups.append(x)
    assert len(ups) >= 10
    check(table, [np.array(ups), -np.array(ups)])


def test_edges_of_the_table_range(table):
    edges = [csvio._LOW, csvio._HIGH, 10.0 ** (csvio._K_MIN + 2),
             10.0 ** (csvio._K_MAX - 2), 5e-324, 2.2250738585072014e-308,
             1.7976931348623157e308, 1e16, 1e17, 1e-4, 1e-5]
    values = neighbours(edges)
    check(table, [values, -values])


def test_zeros_infinities_and_nans(table):
    x = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan],
        from_bits([0x7FF0000000000001, 0xFFF8000000000123, 0x7FF7FFFFFFFFFFFF,
                   0x0000000000000001, 0x800FFFFFFFFFFFFF]),
    ])
    check(table, [x, x[::-1]])


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (7, 1), (3277, 5), (20000, 1)])
def test_table_shapes(table, shape):
    # single rows and columns, and tables of several row blocks
    rng = np.random.default_rng(shape[0] * 10 + shape[1])
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 20, shape)
    check(table, list(values.T))


def test_columns_must_match(table):
    with pytest.raises(ValueError):
        write_csv(table, "a,b", [np.ones(3), np.ones(4)])


def test_no_savetxt_outside_tests():
    # write_csv is the one formatter of output tables
    calls = []
    for path in sorted([*(ROOT / "src" / "dosc").rglob("*.py"),
                        *(ROOT / "scripts").rglob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name == "savetxt":
                    calls.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert calls == []
