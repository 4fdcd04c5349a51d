"""CSV emission: snapshot bytes against a per-row reference formatter."""
import numpy as np
import pytest

from firmgrowth import io


def reference_snapshot(t, sizes, outputs, solds) -> str:
    """Snapshot text with one f-string per row, each field via ``.9g``."""
    rows = "".join(f"{t},{i},{float(s):.9g},{float(o):.9g},{float(d):.9g}\n"
                   for i, (s, o, d) in enumerate(zip(sizes, outputs, solds)))
    return "t,firm_id,size,output,sold\n" + rows


class TestWriteSnapshot:
    def test_matches_per_row_formatter(self, tmp_path):
        rng = np.random.default_rng(5)
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, 2.0**53,
                   np.nextafter(1e9, 0.0), 1e9, np.nextafter(1e9, np.inf), 999_999_999.0,
                   1_000_000_001.0, 123456789.5]
        scaled = rng.random(200) * 10.0 ** rng.integers(-12, 16, 200)
        floats = np.concatenate([special, scaled])
        sizes = np.concatenate([[0, 1, 2**53, 10**9 - 1, 10**9, 10**9 + 1],
                                rng.integers(0, 2**53, 100)])
        outputs, solds = floats[:sizes.size], floats[::-1][:sizes.size]
        path = tmp_path / "snapshot.csv"
        io.write_snapshot(path, 40, sizes, outputs, solds)
        assert path.read_bytes() == reference_snapshot(40, sizes, outputs, solds).encode()
        # sold is the output array itself, as in ScenarioI
        io.write_snapshot(path, 40, sizes, outputs, outputs)
        assert path.read_bytes() == reference_snapshot(40, sizes, outputs, outputs).encode()

        # Tables at the block edges. The output column is whole numbers that
        # "%d" writes, but for one value that needs "%.9g" in the last block.
        block = io._BLOCK_ROWS
        for i, n in enumerate([0, 1, block - 1, block, block + 1, 2 * block + 1]):
            sizes = rng.integers(0, 10**6, n)
            outputs = rng.integers(-10**6, 10**6, n).astype(float)
            outputs[-1:] = [1e9, -0.0, np.nan][i % 3]
            solds = rng.random(n) * 100.0
            io.write_snapshot(path, 3, sizes, outputs, solds)
            assert path.read_bytes() == reference_snapshot(3, sizes, outputs, solds).encode()

    # Columns written with "%d" (integral, below 1e9 in magnitude, no -0.0)
    # and columns that fall back to "%.9g" for one value.
    WHOLE = np.array([0.0, 1.0, -7.0, 123456789.0, 999_999_999.0, -999_999_999.0])
    COLUMNS = [
        (WHOLE, True),
        (np.append(WHOLE, -0.0), False),
        (np.append(WHOLE, 1e9), False),
        (np.append(WHOLE, -1e9), False),
        (np.append(WHOLE, 2.0**53), False),
        (np.append(WHOLE, 0.5), False),
        (np.append(WHOLE, np.nan), False),
        (np.append(WHOLE, np.inf), False),
        (WHOLE.astype(np.int64), True),
        (np.append(WHOLE, 10**9).astype(np.int64), False),
        (np.append(WHOLE, -10**9).astype(np.int64), False),
        (np.append(WHOLE, 2**62).astype(np.int64), False),
        (np.append(WHOLE, -2**63).astype(np.int64), False),
    ]

    @pytest.mark.parametrize("column,as_int", COLUMNS,
                             ids=[f"{c.dtype}-{c[-1]}" for c, _ in COLUMNS])
    def test_integral_columns(self, column, as_int, tmp_path):
        assert io._int_column(column) is as_int
        n = column.size
        ints = np.arange(n, dtype=np.int64) * 3 - 5
        halves = np.arange(n) + 0.5
        path = tmp_path / "snapshot.csv"
        for sizes, outputs, solds in [(column, halves, ints), (ints, column, column),
                                      (halves, ints, column)]:
            io.write_snapshot(path, 7, sizes, outputs, solds)
            assert path.read_bytes() == reference_snapshot(7, sizes, outputs, solds).encode()
