import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from yolite import cli as C
from yolite import detect as D
from yolite import imageio as I
from yolite import network as N
from yolite import selftest as S
from yolite import tensor as T
from yolite import weights_io as W


def run_cli(capsys, *argv):
    code = C.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_gray_ppm(path, w, h, value=128):
    img = np.full((h, w, 3), value, dtype=np.uint8)
    I.write_ppm(path, img)
    return path


def make_noise_ppm(path, w, h, seed=0):
    rng = np.random.default_rng(seed)
    I.write_ppm(path, rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))
    return path


class TestDescribe:
    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "describe", "--model", "proposed", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert json.dumps(doc, indent=2, sort_keys=True) == out.strip()
        assert abs(doc["parameters"] - 6.16429e6) / 6.16429e6 < 0.05

    def test_text_table_lists_head_channels(self, capsys):
        code, out, _ = run_cli(capsys, "describe", "--model", "v4tiny", "--classes", "1")
        assert code == 0
        assert "1x18x13x13" in out

    def test_bad_input_size_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "describe", "--input-size", "100")
        assert code == 2
        assert "multiple of 32" in err


class TestFlops:
    def test_paper_fixture_totals(self, capsys):
        code, out, _ = run_cli(capsys, "flops", "--paper-fixtures")
        assert code == 0
        assert "742,064,128" in out
        assert "64,376,832" in out
        assert "11.52" in out

    def test_paper_fixture_json(self, capsys):
        code, out, _ = run_cli(capsys, "flops", "--paper-fixtures", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["csp_block"]["total"] == 742064128
        assert doc["resblock_d"]["total"] == 64376832
        assert 11.52 <= doc["ratio"] <= 11.54

    def test_proposed_cheaper_than_baseline(self, capsys):
        _, out_b, _ = run_cli(capsys, "flops", "--model", "v4tiny", "--format", "json")
        _, out_p, _ = run_cli(capsys, "flops", "--model", "proposed", "--format", "json")
        assert json.loads(out_p)["total"] < json.loads(out_b)["total"]

    def test_input_size_scaling_is_exact(self, capsys):
        _, out416, _ = run_cli(capsys, "flops", "--format", "json")
        _, out320, _ = run_cli(capsys, "flops", "--input-size", "320", "--format", "json")
        d416 = {e["layer"]: e["flops"] for e in json.loads(out416)["entries"]}
        d320 = {e["layer"]: e["flops"] for e in json.loads(out320)["entries"]}
        for layer, f416 in d416.items():
            # (320/416)^2 == 100/169 exactly, entry by entry
            assert d320[layer] * 169 == f416 * 100


class TestDetect:
    def test_zero_weight_file_yields_no_detections(self, capsys, tmp_path):
        g = N.build_yolov4_tiny(4)  # fresh graphs carry all-zero weights
        wpath = tmp_path / "zero.yltw"
        W.save(g, wpath)
        img = make_noise_ppm(tmp_path / "img.ppm", 64, 64)
        code, out, _ = run_cli(capsys, "detect", "--classes", "4", "--input-size", "64",
                               "--weights", str(wpath), "--format", "json", str(img))
        assert code == 0
        assert json.loads(out)["detections"] == []

    def test_uniform_gray_is_deterministic(self, capsys, tmp_path):
        img = make_gray_ppm(tmp_path / "gray.ppm", 416, 416)
        args = ("detect", "--seed", "42", "--format", "json", str(img))
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_square_input_matches_library_pipeline(self, capsys, tmp_path):
        img_path = make_noise_ppm(tmp_path / "sq.ppm", 416, 416, seed=3)
        code, out, _ = run_cli(capsys, "detect", "--classes", "8", "--seed", "7",
                               "--conf-thresh", "0.2", "--format", "json", str(img_path))
        assert code == 0
        got = json.loads(out)["detections"]

        # same pixels pushed through the library without the letterbox wrapper
        pixels = I.read_ppm(img_path).astype(np.float32) / np.float32(255.0)
        x = T.Tensor(np.ascontiguousarray(pixels.transpose(2, 0, 1))[None])
        g = N.build_yolov4_tiny(8)
        W.init_seeded(g, 7)
        h13, h26 = N.forward(g, x)
        dets = D.decode_head(h13, D.AnchorSet(), 13, 416)
        dets += D.decode_head(h26, D.AnchorSet(), 26, 416)
        ref = D.filter_and_nms(dets, 0.2, 0.45)
        assert len(got) == len(ref)
        for rec, d in zip(got, ref):
            assert rec["class_id"] == d.class_id
            assert rec["box"]["cx"] == pytest.approx(d.box.cx, abs=1e-5 * 416)
            assert rec["box"]["cy"] == pytest.approx(d.box.cy, abs=1e-5 * 416)

    @pytest.mark.parametrize("model", sorted(N.MODELS))
    def test_detect_image_records_equal_cli_json(self, capsys, tmp_path, model):
        img = make_noise_ppm(tmp_path / "wide.ppm", 96, 40, seed=8)
        code, out, _ = run_cli(capsys, "detect", "--model", model, "--classes", "4",
                               "--input-size", "64", "--seed", "5", "--conf-thresh", "0.1",
                               "--format", "json", str(img))
        assert code == 0
        g = N.MODELS[model](4)
        W.init_seeded(g, 5)
        dets = D.detect_image(g, I.load_image(img), 64, conf_thresh=0.1)
        assert dets
        assert D.detections_to_json(dets) == json.loads(out)["detections"]

    def test_boxes_map_back_to_original_coordinates(self, capsys, tmp_path):
        img = make_noise_ppm(tmp_path / "wide.ppm", 128, 64, seed=4)
        code, out, _ = run_cli(capsys, "detect", "--classes", "4", "--input-size", "64",
                               "--seed", "5", "--conf-thresh", "0.1",
                               "--format", "json", str(img))
        assert code == 0
        recs = json.loads(out)["detections"]
        assert recs, "expected some low-threshold detections"
        for rec in recs:
            assert -64 <= rec["box"]["cx"] <= 192  # within a box-width of the frame
            assert -64 <= rec["box"]["cy"] <= 128

    def test_raw_tensor_input(self, capsys, tmp_path):
        rng = np.random.default_rng(6)
        raw = rng.random((64, 64, 3), dtype=np.float32)
        path = tmp_path / "img.ylti"
        I.write_raw_tensor(path, raw)
        code, out, _ = run_cli(capsys, "detect", "--classes", "4", "--input-size", "64",
                               "--seed", "5", "--format", "json", str(path))
        assert code == 0
        json.loads(out)

    def test_unreadable_image_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"GIF89a not an image")
        code, _, err = run_cli(capsys, "detect", str(bad))
        assert code == 3
        assert "error" in err
        code, _, _ = run_cli(capsys, "detect", str(tmp_path / "missing.ppm"))
        assert code == 3
        code, _, _ = run_cli(capsys, "detect", str(tmp_path))  # a directory
        assert code == 3
        img = make_gray_ppm(tmp_path / "g.ppm", 64, 64)
        code, _, _ = run_cli(capsys, "detect", "--input-size", "64",
                             "--weights", str(tmp_path), str(img))
        assert code == 3

    def test_unreadable_image_exits_3_before_seed_or_weight_errors(self, capsys, tmp_path,
                                                                   monkeypatch):
        missing = str(tmp_path / "missing.ppm")
        monkeypatch.setenv(C.SEED_ENV, "abc")  # alone, exit 2
        code, out, err = run_cli(capsys, "detect", missing)
        assert (code, out) == (3, "")
        assert "missing.ppm" in err
        wpath = tmp_path / "junk.yltw"  # alone, exit 4
        wpath.write_bytes(b"junk")
        code, _, _ = run_cli(capsys, "detect", "--weights", str(wpath), missing)
        assert code == 3

    def test_fingerprint_mismatch_exits_4(self, capsys, tmp_path):
        g = N.build_yolov4_tiny(4)
        wpath = tmp_path / "w.yltw"
        W.save(g, wpath)
        img = make_gray_ppm(tmp_path / "g.ppm", 64, 64)
        code, _, err = run_cli(capsys, "detect", "--classes", "5", "--input-size", "64",
                               "--weights", str(wpath), str(img))
        assert code == 4
        assert "fingerprint" in err

    def test_zero_size_images_exit_3(self, capsys, tmp_path):
        ppm = tmp_path / "empty.ppm"
        ppm.write_bytes(b"P6\n0 0\n255\n")
        code, _, err = run_cli(capsys, "detect", "--input-size", "64", str(ppm))
        assert code == 3
        assert "zero size" in err
        raw = tmp_path / "empty.ylti"
        I.write_raw_tensor(raw, np.zeros((0, 5, 3), np.float32))
        code, _, err = run_cli(capsys, "detect", "--input-size", "64", str(raw))
        assert code == 3
        assert "zero dimension" in err

    @pytest.mark.parametrize("bad_value", [np.nan, -1.0])
    def test_invalid_running_var_in_weight_file_exits_4(self, capsys, tmp_path, bad_value):
        g = N.build_yolov4_tiny(4)
        W.init_seeded(g, 3)
        last_bn = [p for _, p in N.iter_conv_entries(g) if p.bn is not None][-1]
        last_bn.bn.running_var[-1] = bad_value
        wpath = tmp_path / "bad.yltw"
        W.save(g, wpath)
        img = make_gray_ppm(tmp_path / "g.ppm", 64, 64)
        code, _, err = run_cli(capsys, "detect", "--classes", "4", "--input-size", "64",
                               "--weights", str(wpath), str(img))
        assert code == 4
        assert "running_var" in err

    def test_non_utf8_layer_id_in_weight_file_exits_4(self, capsys, tmp_path):
        wpath = tmp_path / "bad.yltw"
        W.save(N.build_yolov4_tiny(4), wpath)
        data = bytearray(wpath.read_bytes())
        data[22] = 0xFF  # first byte of the first layer id
        wpath.write_bytes(bytes(data))
        img = make_gray_ppm(tmp_path / "g.ppm", 64, 64)
        code, _, err = run_cli(capsys, "detect", "--classes", "4", "--input-size", "64",
                               "--weights", str(wpath), str(img))
        assert code == 4
        assert "layer id" in err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_during_forward_exits_6(self, capsys, tmp_path):
        g = N.build_yolov4_tiny(4)
        W.init_seeded(g, 3)
        for _, p in N.iter_conv_entries(g):
            p.weights[:] = 1e30  # finite, so the file loads; activations overflow
        wpath = tmp_path / "huge.yltw"
        W.save(g, wpath)
        img = make_gray_ppm(tmp_path / "g.ppm", 64, 64)
        code, _, err = run_cli(capsys, "detect", "--classes", "4", "--input-size", "64",
                               "--weights", str(wpath), str(img))
        assert code == 6
        assert "NonFiniteError" in err

    def test_box_size_overflow_during_decode_exits_6(self, capsys, tmp_path):
        g = N.build_yolov4_tiny(4)  # zero weights, so head_13 outputs its bias
        dict(N.iter_conv_entries(g))["head_13"].bias[2] = 1000.0  # first anchor's tw
        wpath = tmp_path / "wide.yltw"
        W.save(g, wpath)
        img = make_gray_ppm(tmp_path / "g.ppm", 64, 64)
        code, out, err = run_cli(capsys, "detect", "--classes", "4", "--input-size", "64",
                                 "--weights", str(wpath), "--format", "json", str(img))
        assert code == 6
        assert "NonFiniteError" in err and "Traceback" not in err
        assert "Infinity" not in out


class TestBench:
    def test_single_iteration_report(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--iters", "1", "--input-size", "64",
                               "--classes", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"][0]["iters"] == 1
        assert doc["results"][0]["fps"] > 0
        assert doc["conv_fold"] == T.CONV_FOLD in ("einsum", "ufunc")

    def test_median_is_the_middle_run(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--iters", "3", "--input-size", "32",
                               "--classes", "1", "--format", "json")
        assert code == 0
        r = json.loads(out)["results"][0]
        # the slowest of three runs takes 3 * mean - min - median ms
        assert r["min_ms"] <= r["median_ms"] <= (3 * r["mean_ms"] - r["min_ms"]) / 2 + 1e-3
        code, out, _ = run_cli(capsys, "bench", "--iters", "1", "--input-size", "32",
                               "--classes", "1")
        assert code == 0
        assert re.fullmatch(r"v4tiny: 1 iteration\(s\), mean (\S+) ms, median \1 ms, "
                            rf"min \1 ms, \S+ FPS, {T.CONV_FOLD} conv fold\n", out)

    def test_compare_lists_both_models(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--iters", "1", "--input-size", "64",
                               "--classes", "2", "--compare", "--format", "json")
        assert code == 0
        models = [r["model"] for r in json.loads(out)["results"]]
        assert models == ["v4tiny", "proposed"]

    def test_zero_iters_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "bench", "--iters", "0")
        assert code == 2


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert "FAIL" not in out
        lines = out.splitlines()
        for name, _ in S.collect_checks():
            assert sum(line.startswith(f"PASS {name}:") for line in lines) == 1, name
        assert f"PASS conv-vs-naive: bit-exact on a seeded case ({T.CONV_FOLD} conv fold)" in lines

    def test_model_and_classes_choose_the_checked_graph(self, capsys, tmp_path):
        code, plain, _ = run_cli(capsys, "selftest")
        assert code == 0 and "v4tiny, 80 classes" in plain
        chosen = ("selftest", "--model", "proposed", "--classes", "7")
        code, out, _ = run_cli(capsys, *chosen)
        assert code == 0 and "FAIL" not in out
        assert out != plain
        assert "proposed, 7 classes: round-trip stable; loading into v4tiny rejected" in out
        assert "proposed, 7 classes: repeated forward" in out
        wpath = tmp_path / "p7.yltw"
        W.save(N.build_proposed(7), wpath)
        code, out, _ = run_cli(capsys, *chosen, "--weights", str(wpath))
        assert code == 0
        assert "PASS weight-file: proposed, 7 classes: weight file loads cleanly" in out

    def test_selftest_broken_weights_nonzero_exit(self, capsys, tmp_path):
        bad = tmp_path / "broken.yltw"
        bad.write_bytes(b"YLTWgarbage-that-is-not-a-weight-file")
        code, out, _ = run_cli(capsys, "selftest", "--weights", str(bad))
        assert code == 5
        assert "FAIL weight-file" in out

    def test_selftest_json_format(self, capsys, tmp_path):
        bad = tmp_path / "broken.yltw"
        bad.write_bytes(b"junk")
        code, out, _ = run_cli(capsys, "selftest", "--weights", str(bad),
                               "--format", "json")
        assert code == 5
        doc = json.loads(out)
        assert doc["passed"] is False
        by_name = {c["name"]: c["passed"] for c in doc["checks"]}
        assert by_name["weight-file"] is False
        assert by_name["reference-costs"] is True


class TestSeedEnvFallback:
    def test_env_seed_used_when_flag_absent(self, capsys, tmp_path, monkeypatch):
        img = make_gray_ppm(tmp_path / "g.ppm", 64, 64)
        monkeypatch.setenv(C.SEED_ENV, "9")
        _, out_env, _ = run_cli(capsys, "detect", "--classes", "2", "--input-size", "64",
                                "--format", "json", str(img))
        monkeypatch.delenv(C.SEED_ENV)
        _, out_flag, _ = run_cli(capsys, "detect", "--classes", "2", "--input-size", "64",
                                 "--seed", "9", "--format", "json", str(img))
        assert out_env == out_flag

    def test_non_integer_env_seed_exits_2(self, capsys, tmp_path, monkeypatch):
        img = make_gray_ppm(tmp_path / "g.ppm", 64, 64)
        monkeypatch.setenv(C.SEED_ENV, "abc")
        code, _, err = run_cli(capsys, "detect", "--input-size", "64", str(img))
        assert code == 2
        assert C.SEED_ENV in err

    @pytest.mark.parametrize("argv", [("describe",), ("flops", "--paper-fixtures")],
                             ids=["describe", "flops-paper-fixtures"])
    def test_env_seed_ignored_where_nothing_is_seeded(self, capsys, monkeypatch, argv):
        monkeypatch.setenv(C.SEED_ENV, "abc")
        code, out, _ = run_cli(capsys, *argv, "--classes", "2", "--input-size", "64")
        assert code == 0
        assert out


def child_env() -> dict:
    """The environment for a child interpreter that imports the yolite under
    test: this process's import path, which holds ``src`` in a checkout."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "yolite.cli", "describe", "--classes", "1",
             "--format", "json"],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["classes"] == 1

    def test_package_runs_as_a_module(self):
        ok = subprocess.run([sys.executable, "-m", "yolite", "selftest"],
                            capture_output=True, text=True, env=child_env(), timeout=300)
        assert ok.returncode == 0, ok.stderr
        assert "PASS conv-vs-naive" in ok.stdout
        bad = subprocess.run([sys.executable, "-m", "yolite", "describe", "--no-such-flag"],
                             capture_output=True, text=True, env=child_env(), timeout=60)
        assert bad.returncode == 2
        assert "--no-such-flag" in bad.stderr and "Traceback" not in bad.stderr

    @pytest.mark.parametrize("suffix", ["ppm", "ylti"])
    def test_image_piped_on_stdin_equals_file(self, tmp_path, suffix):
        path = tmp_path / f"img.{suffix}"
        if suffix == "ppm":
            make_noise_ppm(path, 48, 40, seed=2)
        else:
            I.write_raw_tensor(path, np.random.default_rng(2).random((40, 48, 3)))
        argv = [sys.executable, "-m", "yolite.cli", "detect", "--input-size", "32",
                "--classes", "2", "--conf-thresh", "0.05", "--format", "json"]
        by_path = subprocess.run(argv + [str(path)], capture_output=True, timeout=120,
                                 env=child_env())
        piped = subprocess.run(argv + ["/dev/stdin"], input=path.read_bytes(),
                               capture_output=True, timeout=120, env=child_env())
        assert by_path.returncode == piped.returncode == 0, piped.stderr
        dets = json.loads(by_path.stdout)["detections"]
        assert dets
        assert json.loads(piped.stdout) == {"image": "/dev/stdin", "detections": dets}

    def test_anchor_override(self, capsys, tmp_path):
        img = make_gray_ppm(tmp_path / "g.ppm", 64, 64)
        anchors = json.dumps({"32": [[10, 10], [20, 20], [30, 30]],
                              "16": [[5, 5], [8, 8], [12, 12]]})
        code, out, _ = run_cli(capsys, "detect", "--classes", "2", "--input-size", "64",
                               "--conf-thresh", "0", "--anchors", anchors, "--format", "json",
                               str(img))
        assert code == 0
        dets = json.loads(out)["detections"]
        assert dets and all(d["class_id"] < 2 for d in dets)

    @pytest.mark.parametrize("anchors", [
        {"32": [[1, 1], [2, 2], [3, 3]]},
        {"32": [[10, 10]], "16": [[5, 5]]},
        {"32": [[1, 1], [2, 2], [3, 3], [4, 4]], "16": [[1, 1], [2, 2], [3, 3], [4, 4]]},
        {"32": [[float("nan"), 1], [2, 2], [3, 3]], "16": [[1, 1], [2, 2], [float("inf"), 3]]},
        {},
    ], ids=["stride16-missing", "one-pair", "four-pairs", "non-finite", "empty"])
    def test_anchor_rule_is_config_error(self, capsys, tmp_path, anchors):
        img = make_gray_ppm(tmp_path / "g.ppm", 64, 64)
        code, out, err = run_cli(capsys, "detect", "--classes", "2", "--input-size", "64",
                                 "--anchors", json.dumps(anchors), str(img))
        assert code == 2
        assert out == ""
        assert "anchors" in err

    def test_bad_anchor_json_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "detect", "--anchors", "{not json", "img.ppm")
        assert code == 2


# (subcommand, flag, value, accepted): the boundaries of every numeric input
# rule, on the subcommands that read the flag.
U64_MAX = str(2 ** 64 - 1)
RULE_CASES = [
    *[(cmd, "--seed", v, ok) for cmd in ("detect", "bench")
      for v, ok in (("0", True), (U64_MAX, True), ("-1", False), (str(2 ** 64), False))],
    *[("detect", flag, v, ok) for flag in ("--conf-thresh", "--iou-thresh")
      for v, ok in (("0", True), ("1", True), ("-0.01", False), ("1.01", False),
                    ("nan", False))],
    *[(cmd, "--classes", "0", False) for cmd in ("detect", "bench")],
    *[(cmd, "--input-size", v, False) for cmd in ("detect", "bench")
      for v in ("0", "-32", "100")],
    ("bench", "--iters", "0", False),
    ("bench", "--iters", "-1", False),
    # the maximums; only describe takes them itself, as it runs no tensor math
    ("describe", "--classes", str(C.MAX_CLASSES), True),
    ("describe", "--input-size", str(C.MAX_INPUT_SIZE), True),
    *[(cmd, "--classes", v, False) for cmd in ("describe", "detect", "bench")
      for v in (str(C.MAX_CLASSES + 1), str(10 ** 18))],
    *[(cmd, "--input-size", v, False) for cmd in ("describe", "detect", "bench")
      for v in (str(C.MAX_INPUT_SIZE + 32), str(2 ** 40))],
]


class TestInputRules:
    @staticmethod
    def argv(command, tmp_path, *extra):
        # a later occurrence of a flag overrides the base value
        tail = []
        if command == "bench":
            tail = ["--iters", "1"]
        elif command == "detect":
            tail = [str(make_gray_ppm(tmp_path / "g.ppm", 32, 32))]
        return [command, "--classes", "1", "--input-size", "32", *tail, *extra]

    @pytest.mark.parametrize("command,flag,value,accepted", RULE_CASES,
                             ids=[f"{c}{f}={v}" for c, f, v, _ in RULE_CASES])
    def test_flag_boundary(self, capsys, tmp_path, command, flag, value, accepted):
        code, out, err = run_cli(capsys, *self.argv(command, tmp_path, flag, value))
        if accepted:
            assert code == 0 and out
            return
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert flag.lstrip("-").replace("-", " ") in err.replace("-", " ")

    @pytest.mark.parametrize("command,flag", [
        ("detect", "--classes"), ("detect", "--input-size"), ("detect", "--conf-thresh"),
        ("detect", "--iou-thresh"), ("detect", "--seed"), ("bench", "--iters")])
    def test_non_number_is_config_error(self, capsys, tmp_path, command, flag):
        code, out, err = run_cli(capsys, *self.argv(command, tmp_path, flag, "1.5x"))
        assert code == 2
        assert out == ""
        kind = "a number" if "thresh" in flag else "an integer"
        assert err == f"error: {flag} must be {kind}, got '1.5x'\n"

    @pytest.mark.parametrize("command", ["detect", "bench"])
    @pytest.mark.parametrize("value,accepted", [("0", True), (U64_MAX, True),
                                                ("-1", False), (str(2 ** 64), False)])
    def test_env_seed_boundary(self, capsys, tmp_path, monkeypatch, command, value, accepted):
        monkeypatch.setenv(C.SEED_ENV, value)
        code, out, err = run_cli(capsys, *self.argv(command, tmp_path))
        if accepted:
            assert code == 0 and out
            return
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert C.SEED_ENV in err

    def test_compare_rejects_weights_before_timing(self, capsys, tmp_path):
        wpath = tmp_path / "w.yltw"
        W.save(N.build_yolov4_tiny(1), wpath)
        code, out, err = run_cli(capsys, "bench", "--compare", "--weights", str(wpath),
                                 "--classes", "1", "--input-size", "32", "--iters", "1")
        assert code == 2
        assert out == ""
        assert "--weights" in err


# A valid value for every flag that takes one; store_true flags take none.
FLAG_VALUES = {"--model": "proposed", "--classes": "2", "--input-size": "64",
               "--conf-thresh": "0.5", "--iou-thresh": "0.5", "--seed": "3",
               "--anchors": json.dumps({"32": [[1, 1], [2, 2], [3, 3]],
                                        "16": [[1, 1], [2, 2], [3, 3]]}),
               "--weights": "w.yltw", "--format": "json", "--iters": "2"}
OPTIONS = [name for name in C.FLAGS if name.startswith("--")]


def flag_argv(command, flag):
    value = [] if C.FLAGS[flag].get("action") == "store_true" else [FLAG_VALUES[flag]]
    return [command, flag, *value, *(["img.ppm"] if command == "detect" else [])]


class TestFlagTable:
    """Each subcommand takes exactly the flags `cli.COMMANDS` gives it."""

    READ = [(c, f) for c, (_, names) in C.COMMANDS.items() for f in OPTIONS if f in names]
    UNREAD = [(c, f) for c, (_, names) in C.COMMANDS.items() for f in OPTIONS if f not in names]

    @pytest.mark.parametrize("command,flag", READ, ids=[f"{c}{f}" for c, f in READ])
    def test_read_flag_is_parsed(self, command, flag):
        args = C.build_parser().parse_args(flag_argv(command, flag))
        assert getattr(args, flag[2:].replace("-", "_")) != C.FLAGS[flag].get("default")

    @pytest.mark.parametrize("command,flag", UNREAD, ids=[f"{c}{f}" for c, f in UNREAD])
    def test_unread_flag_exits_2(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            C.main(flag_argv(command, flag))
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert flag in err and "Traceback" not in err

    @pytest.mark.parametrize("command", sorted(C.COMMANDS))
    def test_help_lists_only_own_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            C.main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
        assert listed == {f for f in C.COMMANDS[command][1] if f.startswith("--")}
