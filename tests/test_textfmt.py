import numpy as np

from obflab.textfmt import float_field, int_field, join_rows


def _lines(field):
    return join_rows([field]).decode("ascii").split("\n")[:-1]


def test_float_field_is_repr():
    # random bit patterns cover every exponent, NaN payloads and both infinities;
    # 2^k, 10^k and their neighbours sit on the edges of the digit and layout rules
    rng = np.random.default_rng(12)
    edges = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)), 10.0 ** np.arange(-323, 309)])
    values = np.concatenate([
        rng.integers(0, 2**64, 400_000, dtype=np.uint64).view(np.float64),
        rng.integers(1, 2**52, 50_000, dtype=np.uint64).view(np.float64),  # subnormals
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
        rng.exponential(10.0, 50_000) * 10.0 ** rng.integers(-8, 20, 50_000),
        [0.0, np.nan, np.inf, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
         1e-5, 1e-4, 0.1, 0.3, 1.0, 1e16, 1e15, 9007199254740993.0, 1e22, 1e23, 123456789.123456],
    ])
    values = np.concatenate([values, -values])
    assert values.size >= 10**6
    assert _lines(float_field(values)) == list(map(repr, values.tolist()))


def test_int_field_is_str():
    rng = np.random.default_rng(13)
    tens = 10 ** np.arange(19, dtype=np.int64)
    values = np.concatenate([
        rng.integers(-2**63, 2**63 - 1, 100_000, dtype=np.int64, endpoint=True),
        rng.integers(-1000, 1000, 10_000),
        tens, tens - 1, -tens, 1 - tens,
        [-1, 0, 2**32 - 1, 2**32, 2**32 + 1, -2**32, 2**63 - 1, -2**63],
    ])
    assert _lines(int_field(values)) == list(map(str, values.tolist()))


def test_join_rows_broadcasts_the_fields():
    # (3, 1), (2,) and (3, 2) columns make rows in C order of the (3, 2) shape
    rows = join_rows([int_field(np.arange(3)[:, None]), int_field(np.array([1, 2])),
                      float_field(np.array([[0.5, -0.0], [np.nan, 1e-7], [-np.inf, 2.0]]))])
    assert rows == b"0,1,0.5\n0,2,-0.0\n1,1,nan\n1,2,1e-07\n2,1,-inf\n2,2,2.0\n"
