import numpy as np
import pytest

from kinctrl.io import read_csv, write_csv, write_manifest


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


class TestWriteManifest:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value_raises_before_writing(self, tmp_path, value):
        path = tmp_path / "manifest.json"
        with pytest.raises(ValueError):
            write_manifest(path, {"metrics": {"gap": value}})
        assert not path.exists()
