import math

import numpy as np
import pytest

from entropix import pgm


def test_pixel_scaling():
    emap = np.array([[0.0, math.log(64)], [math.log(64) / 2, 0.1]])
    pix = pgm.entropy_to_pixels(emap, 64)
    assert pix[0, 0] == 0
    assert pix[0, 1] == 255
    assert pix[1, 0] == round(255 / 2)


def test_pixels_clipped():
    pix = pgm.entropy_to_pixels(np.array([[10.0]]), 4)
    assert pix[0, 0] == 255


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pix = rng.integers(0, 256, size=(5, 7))
    path = tmp_path / "map.pgm"
    pgm.write_pgm(path, pix)
    np.testing.assert_array_equal(pgm.read_pgm(path), pix)


def test_header_format(tmp_path):
    path = tmp_path / "map.pgm"
    pgm.write_pgm(path, np.zeros((2, 3), dtype=int))
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "3 2"
    assert lines[2] == "255"


def test_reader_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_text("P5\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(ValueError):
        pgm.read_pgm(bad)
    short = tmp_path / "short.pgm"
    short.write_text("P2\n2 2\n255\n0 0 0\n")
    with pytest.raises(ValueError):
        pgm.read_pgm(short)


@pytest.mark.parametrize("text", ["P2\n", "P2\n4\n", "P2\n4 2\n",
                                  "P2\n# a comment\n4 2\n"])
def test_reader_refuses_a_truncated_header(tmp_path, text):
    path = tmp_path / "head.pgm"
    path.write_text(text)
    with pytest.raises(ValueError, match="not an ASCII PGM file"):
        pgm.read_pgm(path)


def test_reader_accepts_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_text("P2\n# a comment\n2 1\n255\n3 4\n")
    np.testing.assert_array_equal(pgm.read_pgm(path), [[3, 4]])


@pytest.mark.parametrize("pixels", [[[300, -2]], [[256]], [[-1, 0]],
                                    [[0, 255], [255, 1000]]])
def test_writer_refuses_what_the_reader_refuses(tmp_path, pixels):
    # the header declares maxval 255, so a pixel outside [0, 255] would
    # write a file that read_pgm refuses; no file is opened for it
    path = tmp_path / "map.pgm"
    with pytest.raises(ValueError, match="pixel out of range"):
        pgm.write_pgm(path, pixels)
    assert not path.exists()


def test_writer_bounds_are_inclusive(tmp_path):
    path = tmp_path / "map.pgm"
    pgm.write_pgm(path, [[0, 255], [17, 3]])
    assert path.read_text() == "P2\n2 2\n255\n0 255\n17 3\n"
    np.testing.assert_array_equal(pgm.read_pgm(path), [[0, 255], [17, 3]])
