"""Property tests: every byte string handed to a file reader ends in a
result or in a typed ``YoliteError``, never in another exception."""

import struct

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from yolite import imageio as I
from yolite import network as N
from yolite import weights_io as W
from yolite.errors import YoliteError

FUZZ = settings(derandomize=True, deadline=None, max_examples=80,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

tails = st.binary(max_size=64)
ppm_headers = st.builds(
    lambda w, h, maxval, sep: b"P6" + sep + f"{w} {h} {maxval}".encode() + sep,
    st.integers(0, 6), st.integers(0, 6), st.sampled_from([255, 65535, 0]),
    st.sampled_from([b"\n", b" ", b"\n# comment\n"]))
ylti_headers = st.builds(lambda h, w, c: I.RAW_MAGIC + struct.pack("<III", h, w, c),
                         st.integers(0, 3), st.integers(0, 3), st.integers(0, 4))


def read_or_typed_error(reader, path, data):
    path.write_bytes(data)
    try:
        reader(path)
    except YoliteError:
        pass


@FUZZ
@given(data=st.one_of(st.binary(max_size=96), st.builds(bytes.__add__, ppm_headers, tails),
                      st.builds(bytes.__add__, st.just(b"P6"), tails)))
@example(data=b"P6 " + b"1" * 5000 + b" 1 255\n")
def test_read_ppm(tmp_path, data):
    for reader in (lambda path: I._parse_ppm(data, path), I.load_image):
        read_or_typed_error(reader, tmp_path / "fuzz.ppm", data)


@FUZZ
@given(data=st.one_of(st.binary(max_size=96), st.builds(bytes.__add__, ylti_headers, tails),
                      st.builds(bytes.__add__, st.just(I.RAW_MAGIC), tails)))
def test_read_raw_tensor(tmp_path, data):
    for reader in (lambda path: I._parse_raw_tensor(data, path), I.load_image):
        read_or_typed_error(reader, tmp_path / "fuzz.ylti", data)


@pytest.fixture(scope="module")
def graph_and_header(tmp_path_factory):
    """A graph and the first bytes of its weight file: the file header, the
    first layer's id and array lengths, and the start of its weights."""
    g = N.build_yolov4_tiny(2)
    path = tmp_path_factory.mktemp("weights") / "w.yltw"
    W.save(g, path)
    return g, path.read_bytes()[:160]


@FUZZ
@given(data=st.one_of(st.binary(max_size=96), st.tuples(st.integers(0, 160), tails)),
       flip=st.tuples(st.integers(0, 159), st.integers(0, 255)))
@example(data=(40, b""), flip=(22, 0xFF))  # a non-UTF-8 byte in the first layer id
def test_load_weights(tmp_path, graph_and_header, data, flip):
    g, valid = graph_and_header
    if isinstance(data, tuple):  # a valid prefix, one byte overwritten, then junk
        prefix, tail = data
        blob = bytearray(valid[:prefix])
        if flip[0] < prefix:
            blob[flip[0]] = flip[1]
        data = bytes(blob) + tail
    read_or_typed_error(lambda path: W.load(g, path), tmp_path / "fuzz.yltw", data)
