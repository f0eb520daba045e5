import csv

import numpy as np
import pytest

from kinctrl.io import fmt, read_csv, write_csv, write_manifest


def per_value_csv(path, header, columns):
    """The reference writer: every cell through fmt, one row at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([fmt(v) for v in row])


class TestReadCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        cols = [rng.random(257) * 10.0 ** rng.integers(-300, 300, 257) for _ in range(3)]
        path = tmp_path / "cols.csv"
        write_csv(path, ["x", "f_S", "f_I"], cols)
        back = read_csv(path)
        assert list(back) == ["x", "f_S", "f_I"]
        for name, col in zip(back, cols):
            assert np.array_equal(back[name], col)

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("t,rho_S\n")
        back = read_csv(path)
        assert list(back) == ["t", "rho_S"]
        assert all(v.size == 0 for v in back.values())

    def test_rejects_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x,f\n1.0,2.0\n3.0\n4.0,5.0,6.0\n")
        with pytest.raises(ValueError, match="line 3"):
            read_csv(path)


class TestWriteCsv:
    @pytest.mark.parametrize("block_rows", [5, 1024])  # blocks split the columns, or not
    def test_bytes_match_the_per_value_writer(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr("kinctrl.io.CSV_BLOCK_ROWS", block_rows)
        special = [0.0, -0.0, 5e-324, -2.2250738585072014e-309, 1e16, -1e16, 1e22,
                   float("inf"), float("-inf"), float("nan"), 0.1, 1.0 / 3.0]
        n = len(special)
        columns = [
            ("uncontrolled", "additive_a", "interaction_b") * (n // 3),  # text, as the sweep
            np.array(special),
            np.arange(-6, n - 6),  # an int array
            tuple(range(n)),  # Python ints
            np.array(special, dtype=np.float32),
            tuple(np.float64(v) for v in special),  # numpy scalars, as the sweep's moments
            ["a,b", 1.5, -0.0, 7, np.float64(2.5), "x", float("nan"), 1e16, 0, "", 3, -1],
        ]
        header = ["strategy", "f", "k", "i", "f32", "scalars", "mixed"]
        write_csv(tmp_path / "new.csv", header, columns)
        per_value_csv(tmp_path / "old.csv", header, columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestWriteManifest:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value_raises_before_writing(self, tmp_path, value):
        path = tmp_path / "manifest.json"
        with pytest.raises(ValueError):
            write_manifest(path, {"metrics": {"gap": value}})
        assert not path.exists()
