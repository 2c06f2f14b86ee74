"""Byte-level goldens for the static reports and the weight-file layout.

The digests are sha256 of the CLI's stdout; they pin every layer id, kind,
shape, parameter count and cost entry of both models at two input sizes.
The fingerprints hash the conv layer table that `.yltw` files are keyed by,
so a change here means existing weight files no longer load.
"""

import hashlib

import pytest

from yolite import analysis as A
from yolite import cli as C
from yolite import network as N
from yolite import weights_io as W

REPORT_SHA256 = {
    ("describe", "v4tiny", 416, "text"): "f1a8aed763e21913ac050c532a6e47f922e113dbb0d5152cab8d59dd5b8f791f",
    ("describe", "v4tiny", 416, "json"): "7d70e616e8d29716c390a228f1713a8cf7c3538d13be56ee70b97492b26a1338",
    ("describe", "v4tiny", 320, "text"): "7d8b69d1c4db87476769f4ca2dc39b95babe4c109f7097998a3cf6d496efe186",
    ("describe", "v4tiny", 320, "json"): "166266e96672644c1ce3f2c1f117a9402d626b5afee6607393d577d65d07e358",
    ("describe", "proposed", 416, "text"): "bd48ea12d5e92432c0070cfda22f8ab55dcc69a61b56c9d8e6c3d6823f306f37",
    ("describe", "proposed", 416, "json"): "dee5c5a003b836ed93ef0491a7692c5943660f3ec16ae35463c724078119b66d",
    ("describe", "proposed", 320, "text"): "336aa652c331d60ccaf3ed22a9a8544484b9e2f1b3890f6784133061cdb5ec87",
    ("describe", "proposed", 320, "json"): "dc6b2aad189b59ca935f44f6f52a321c76ce409f18b60e99f0866bc55d920671",
    ("flops", "v4tiny", 416, "text"): "2b53e37410b63a84bd6be341321aa88cb8848f5b5810c75d04fcdc19ce60b604",
    ("flops", "v4tiny", 416, "json"): "350e4ef09afcb4bf2a1ea66fac066edfd9dc86bb30a904a1b6ca0d111d700926",
    ("flops", "v4tiny", 320, "text"): "589f2fdd4ab607772cae39621840cc546c40a8addc1d7acca01cd2171b7c8f21",
    ("flops", "v4tiny", 320, "json"): "74e92f37ca6b3ea69e773fb91334dacf463b5eb9f6ba80a478cce85fd60f7525",
    ("flops", "proposed", 416, "text"): "c70c503e27f350abe9488d4ca5be81e1d74a54741c2266e3a8ccd0007a03af4f",
    ("flops", "proposed", 416, "json"): "3473b45a46731f41eb34d4a37aae0ed6b26efa50cb0377ee5b16f2bd237669d1",
    ("flops", "proposed", 320, "text"): "a46b3bfacd5240fd31f0edc2f37f710b31257dbe3feaf955819a6d6e7d319183",
    ("flops", "proposed", 320, "json"): "22d981fcc9f5a5dfb727ec78cc7c79a055c4f6fd70cdac4c4c7fb23c71830a57",
}

# (model, input size) -> (ledger total, ledger entry count)
FLOPS_TOTALS = {
    ("v4tiny", 416): (3_456_360_960, 24),
    ("proposed", 416): (2_730_203_112, 30),
    ("v4tiny", 320): (2_045_184_000, 24),
    ("proposed", 320): (1_615_504_800, 30),
}

FINGERPRINTS = {
    ("v4tiny", 80): 0x3C6FDFFCB6A3CA37,
    ("v4tiny", 2): 0x346366E2D68DC875,
    ("proposed", 80): 0xFEA17EB37D3598B6,
    ("proposed", 2): 0x73FB6FBDB11844C,
}

BUILDERS = {"v4tiny": N.build_yolov4_tiny, "proposed": N.build_proposed}


@pytest.mark.parametrize("key", sorted(REPORT_SHA256), ids=lambda k: "-".join(map(str, k)))
def test_report_stdout_is_byte_identical(capsys, key):
    command, model, size, fmt = key
    code = C.main([command, "--model", model, "--input-size", str(size), "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REPORT_SHA256[key]


@pytest.mark.parametrize("key", sorted(FLOPS_TOTALS), ids=lambda k: f"{k[0]}-{k[1]}")
def test_ledger_totals(key):
    model, size = key
    report = A.flops_of_graph(BUILDERS[model](80), size)
    assert (report.total, len(report.entries)) == FLOPS_TOTALS[key]


@pytest.mark.parametrize("key", sorted(FINGERPRINTS), ids=lambda k: f"{k[0]}-{k[1]}")
def test_weight_fingerprints(key):
    model, classes = key
    assert W.fingerprint(BUILDERS[model](classes)) == FINGERPRINTS[key]
