import numpy as np
import pytest

from pgrestore import io
from pgrestore.cli import main


class TestTensorFormat:
    def test_round_trip(self, tmp_path, rng):
        x = rng.standard_normal((2, 3, 4))
        path = tmp_path / "t.pgt"
        io.write_tensor(path, x)
        raw = path.read_bytes()
        assert raw[:4] == b"PGT1"
        assert len(raw) == 16 + 2 * 3 * 4 * 4
        back = io.read_tensor(path)
        assert back.shape == (2, 3, 4)
        np.testing.assert_allclose(back, x, atol=1e-6)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pgt"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ValueError, match="PGT1"):
            io.read_tensor(path)

    def test_truncated_body_rejected(self, tmp_path, rng):
        path = tmp_path / "t.pgt"
        io.write_tensor(path, rng.standard_normal((1, 4, 4)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="bytes"):
            io.read_tensor(path)

    def test_non_3d_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            io.write_tensor(tmp_path / "t.pgt", np.zeros((4, 4)))


class TestGridTextFormats:
    def test_kernel_round_trip(self, tmp_path, rng):
        k = rng.random((3, 5))
        path = tmp_path / "k.txt"
        io.write_kernel(path, k)
        assert path.read_text().splitlines()[0] == "3 5"
        np.testing.assert_array_equal(io.read_kernel(path), k)  # repr round-trips

    def test_mask_round_trip(self, tmp_path, rng):
        mask = rng.random((6, 4)) < 0.5
        path = tmp_path / "m.txt"
        io.write_mask(path, mask)
        np.testing.assert_array_equal(io.read_mask(path), mask)

    def test_wrong_count_rejected(self, tmp_path):
        (tmp_path / "k.txt").write_text("2 2\n1.0 2.0 3.0\n")
        with pytest.raises(ValueError, match="expected 4"):
            io.read_kernel(tmp_path / "k.txt")

    def test_non_binary_mask_rejected(self, tmp_path):
        (tmp_path / "m.txt").write_text("1 2\n0.5 1\n")
        with pytest.raises(ValueError, match="0 or 1"):
            io.read_mask(tmp_path / "m.txt")


class TestImages:
    def test_pgm_round_trip(self, tmp_path):
        img = np.linspace(0.0, 1.0, 64).reshape(1, 8, 8)
        path = tmp_path / "g.pgm"
        io.write_image(path, img)
        assert path.read_bytes()[:2] == b"P5"
        back = io.read_image(path)
        assert back.shape == (1, 8, 8)
        np.testing.assert_allclose(back, img, atol=1.0 / 255.0)

    def test_ppm_round_trip(self, tmp_path, rng):
        img = rng.random((3, 5, 6))
        path = tmp_path / "c.ppm"
        io.write_image(path, img)
        assert path.read_bytes()[:2] == b"P6"
        back = io.read_image(path)
        np.testing.assert_allclose(back, img, atol=1.0 / 255.0)

    def test_export_clamps(self, tmp_path):
        img = np.array([[[-1.0, 2.0]]])
        path = tmp_path / "clamp.pgm"
        io.write_image(path, img)
        back = io.read_image(path)
        np.testing.assert_array_equal(back.ravel(), [0.0, 1.0])

    def test_comment_handling(self, tmp_path):
        payload = bytes(range(4))
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + payload)
        img = io.read_image(path)
        np.testing.assert_allclose(img.ravel(), np.arange(4) / 255.0)

    def test_two_channel_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            io.write_image(tmp_path / "x.pgm", np.zeros((2, 4, 4)))

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(ValueError, match="8-bit"):
            io.read_image(path)


class TestConfigFormat:
    def test_round_trip_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        io.write_config(path, {"task": "deblur", "sigma_e": 0.05, "seed": 7})
        text = path.read_text()
        assert "task=deblur" in text
        parsed = io.read_config(path)
        assert parsed == {"task": "deblur", "sigma_e": "0.05", "seed": "7"}

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# full line comment\n\n  # indented comment\nkey=value\nother = padded \n")
        assert io.read_config(path) == {"key": "value", "other": "padded"}

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("output=/data/run#1/x.pgt\nnote=a # b\n")
        assert io.read_config(path) == {"output": "/data/run#1/x.pgt", "note": "a # b"}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("justakey\n")
        with pytest.raises(ValueError, match="malformed"):
            io.read_config(path)

    def test_repeated_key_rejected(self, tmp_path):
        # the last value used to win silently
        path = tmp_path / "twice.cfg"
        path.write_text("gamma=8.0\nseed=1\ngamma = 3\ngamma=2\n")
        with pytest.raises(ValueError, match=r"twice\.cfg: key 'gamma' is given twice"):
            io.read_config(path)


# A malformed kernel or input image that `degrade` reads: file name, bytes, message.
MALFORMED = {
    "kernel-header-word": ("k.txt", b"abc 3\n1 1 1\n", "size 'abc' is not an integer"),
    "kernel-negative-sizes": ("k.txt", b"-3 -3\n" + b"0.1 " * 9, "sizes -3 -3 must be at least 0"),
    "kernel-value-word": ("k.txt", b"1 3\n0.25 x 0.25\n", "value 'x' is not a number"),
    "pgm-width-word": ("in.pgm", b"P5 abc 16 255\n" + bytes(256), "size 'abc' is not an integer"),
    "pgm-negative-sizes": ("in.pgm", b"P5 -4 -4 255\n" + bytes(16), "sizes -4 -4 must be at least 1"),
    "pgm-truncated-header": ("in.pgm", b"P5 16", "truncated image header"),
}


@pytest.mark.parametrize("probe", list(MALFORMED))
def test_degrade_names_a_malformed_file(tmp_path, capsys, probe):
    name, content, message = MALFORMED[probe]
    io.write_image(tmp_path / "in.pgm", np.full((1, 16, 16), 0.5))
    io.write_kernel(tmp_path / "k.txt", np.ones((1, 1)))
    bad = tmp_path / name
    bad.write_bytes(content)
    code = main(["degrade", "--input", str(tmp_path / "in.pgm"), "--task", "deblur",
                 "--kernel", str(tmp_path / "k.txt"), "--output", str(tmp_path / "y.pgt")])
    assert code == 2
    assert f"{bad}: {message}" in capsys.readouterr().err
