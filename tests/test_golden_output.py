"""Byte-level goldens for the static reports and the weight-file layout.

The digests are sha256 of the CLI's stdout; they pin every layer id, kind,
shape, parameter count and cost entry of both models at the paper's 416 px,
at 320 px, and at the CLI's smallest and largest input sizes.
The fingerprints hash the conv layer table that `.yltw` files are keyed by,
so a change here means existing weight files no longer load.
"""

import hashlib

import pytest

from yolite import analysis as A
from yolite import cli as C
from yolite import network as N
from yolite import tensor as T
from yolite import weights_io as W

REPORT_SHA256 = {
    ("describe", "v4tiny", 416, "text"): "f1a8aed763e21913ac050c532a6e47f922e113dbb0d5152cab8d59dd5b8f791f",
    ("describe", "v4tiny", 416, "json"): "7d70e616e8d29716c390a228f1713a8cf7c3538d13be56ee70b97492b26a1338",
    ("describe", "v4tiny", 320, "text"): "7d8b69d1c4db87476769f4ca2dc39b95babe4c109f7097998a3cf6d496efe186",
    ("describe", "v4tiny", 320, "json"): "166266e96672644c1ce3f2c1f117a9402d626b5afee6607393d577d65d07e358",
    ("describe", "v4tiny", 32, "text"): "ca8fc587e721352d6998b1682f97090d34de387977f0f94bf1015f53ec985405",
    ("describe", "v4tiny", 32, "json"): "1f09022809d37ca8ff8cc2fe138eebbc22ce8d86180b7be54a58f8f6000a55a7",
    ("describe", "v4tiny", 4096, "text"): "65553c7affd44ecc63a4fb703b8f91eb08e1f141be2baff7996e4af61295e6f9",
    ("describe", "v4tiny", 4096, "json"): "9cd2557749e750a4307668d19002d31c3abb66e2dd072699e76875e54bebd364",
    ("describe", "proposed", 416, "text"): "bd48ea12d5e92432c0070cfda22f8ab55dcc69a61b56c9d8e6c3d6823f306f37",
    ("describe", "proposed", 416, "json"): "dee5c5a003b836ed93ef0491a7692c5943660f3ec16ae35463c724078119b66d",
    ("describe", "proposed", 320, "text"): "336aa652c331d60ccaf3ed22a9a8544484b9e2f1b3890f6784133061cdb5ec87",
    ("describe", "proposed", 320, "json"): "dc6b2aad189b59ca935f44f6f52a321c76ce409f18b60e99f0866bc55d920671",
    ("describe", "proposed", 32, "text"): "6bbf96af67f04a3e5e8a1765e9470a50c62fa9a7cb6c1a2ea69760d39a3491f8",
    ("describe", "proposed", 32, "json"): "48c1d2280923833ba6b253731efc48e6cd3916e5f656b201366bfb25c39850f2",
    ("describe", "proposed", 4096, "text"): "ef69045ace192eceb35445a9da3c29e19e02b27ee2468822332d444b09324ec5",
    ("describe", "proposed", 4096, "json"): "be3591219496fff0a6e22d181314b81bf7bb9d912b1a13aedae89c34852a9fd4",
    ("flops", "v4tiny", 416, "text"): "2b53e37410b63a84bd6be341321aa88cb8848f5b5810c75d04fcdc19ce60b604",
    ("flops", "v4tiny", 416, "json"): "350e4ef09afcb4bf2a1ea66fac066edfd9dc86bb30a904a1b6ca0d111d700926",
    ("flops", "v4tiny", 320, "text"): "589f2fdd4ab607772cae39621840cc546c40a8addc1d7acca01cd2171b7c8f21",
    ("flops", "v4tiny", 320, "json"): "74e92f37ca6b3ea69e773fb91334dacf463b5eb9f6ba80a478cce85fd60f7525",
    ("flops", "v4tiny", 32, "text"): "51d99fb541b7c5ab1d56dc398eb68b4346e1afec20e35895a01024edd090528d",
    ("flops", "v4tiny", 32, "json"): "d4a9fe6816550085dcb3bc7c7c866e4cdfaf3cd96bf0998359ceabb9cc46bac2",
    ("flops", "v4tiny", 4096, "text"): "05bb81805abfb48e7a4d3de5e908f6e1b12baf2ec2bf0906495922c412e6dbd7",
    ("flops", "v4tiny", 4096, "json"): "526cad5284de6460149f4b33341cf65ab398f0f514ba5f449b282ab9de41a8b6",
    ("flops", "proposed", 416, "text"): "c70c503e27f350abe9488d4ca5be81e1d74a54741c2266e3a8ccd0007a03af4f",
    ("flops", "proposed", 416, "json"): "3473b45a46731f41eb34d4a37aae0ed6b26efa50cb0377ee5b16f2bd237669d1",
    ("flops", "proposed", 320, "text"): "a46b3bfacd5240fd31f0edc2f37f710b31257dbe3feaf955819a6d6e7d319183",
    ("flops", "proposed", 320, "json"): "22d981fcc9f5a5dfb727ec78cc7c79a055c4f6fd70cdac4c4c7fb23c71830a57",
    ("flops", "proposed", 32, "text"): "57382cea0a7dd1e8e743870e9954b8f223697fa341e69cdd7e7f375a64d1eb81",
    ("flops", "proposed", 32, "json"): "e17514abd25118917a7d3c7eed73e69f5a409b3ffad86ef6edd4308e3636a7d6",
    ("flops", "proposed", 4096, "text"): "730ce4ebfb2c59a03d5d5234082445ab024437037e00d83c55937c3b795ca7a2",
    ("flops", "proposed", 4096, "json"): "e856eb395c698e66709b1b65070bce75da3876fc19f5bf0dfe5899a9793d9e4f",
}

# (model, input size) -> (ledger total, ledger entry count)
FLOPS_TOTALS = {
    ("v4tiny", 416): (3_456_360_960, 24),
    ("proposed", 416): (2_730_203_112, 30),
    ("v4tiny", 320): (2_045_184_000, 24),
    ("proposed", 320): (1_615_504_800, 30),
    ("v4tiny", 32): (20_451_840, 24),
    ("proposed", 32): (16_155_048, 30),
    ("v4tiny", 4096): (335_082_946_560, 24),
    ("proposed", 4096): (264_684_306_432, 30),
}

FINGERPRINTS = {
    ("v4tiny", 80): 0x3C6FDFFCB6A3CA37,
    ("v4tiny", 2): 0x346366E2D68DC875,
    ("proposed", 80): 0xFEA17EB37D3598B6,
    ("proposed", 2): 0x73FB6FBDB11844C,
}

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
    report = A.flops_of_graph(N.MODELS[model](80), size)
    assert (report.total, len(report.entries)) == FLOPS_TOTALS[key]


@pytest.mark.parametrize("model", sorted(N.MODELS))
def test_ledger_total_scales_with_the_map_area(model):
    """Every row's output side scales by 4096 / 416 = 128 / 13, exactly."""
    total = {size: A.flops_of_graph(N.MODELS[model](80), size).total for size in (416, 4096)}
    assert total[4096] * 13 ** 2 == total[416] * 128 ** 2


def test_reports_at_the_largest_input_run_no_arithmetic(monkeypatch, capsys):
    """describe and flops read shapes and costs off shape-only values, so at
    4096 px they never reach a conv fill, a window view or a pooling fold."""
    def refuse(*args, **kwargs):
        raise AssertionError("a shape-only walk ran arithmetic")

    private = [name for name in vars(T) if name.startswith(("_fill", "_fold", "_window"))]
    assert {"_fill_blocked", "_fill_channel_last", "_fold_terms", "_fill_einsum", "_fold",
            "_window_view"} <= set(private)
    for name in private:
        monkeypatch.setattr(T, name, refuse)
    for command in ("describe", "flops"):
        for model in sorted(N.MODELS):
            assert C.main([command, "--model", model, "--input-size", "4096"]) == 0
    assert "head_26" in capsys.readouterr().out


@pytest.mark.parametrize("key", sorted(FINGERPRINTS), ids=lambda k: f"{k[0]}-{k[1]}")
def test_weight_fingerprints(key):
    model, classes = key
    assert W.fingerprint(N.MODELS[model](classes)) == FINGERPRINTS[key]
