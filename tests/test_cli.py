import argparse
import contextlib
import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mmfusion import cli
from mmfusion.checkpoint import load_checkpoint, save_checkpoint
from mmfusion.cli import build_parser, main
from mmfusion.model import RunConfig
from mmfusion.tensor import Tensor
from test_checkpoint import with_offsets
from test_fields import leaves
from test_notebooks import ROOT, package_env

TINY = {
    "text_encoder": {"d_model": 16, "n_heads": 2, "n_layers": 1, "ffn_width": 32,
                     "embedding_dim": 8, "share_layers": True, "max_len": 16},
    "image_encoder": {"d_model": 16, "n_heads": 2, "n_layers": 1, "ffn_width": 32,
                      "embedding_dim": 16, "share_layers": False, "max_len": 32},
    "trainer": {"epochs": 2, "batch_size": 8, "lr_text": 1e-3, "lr_image": 1e-3,
                "lr_other": 1e-3, "weight_decay": 5e-4},
    "data": {"n_classes": 3, "samples_per_class": 10, "image_size": 8,
             "patch_size": 4, "vocab_size": 16, "sentence_len": [3, 5],
             "noise_level": 0.0, "seed": 0},
    "seed": 0,
}


# the full spec TINY generates: the defaults with TINY's data fields replaced
TINY_SPEC = {**RunConfig().to_dict()["data"], **TINY["data"]}

# every integer size of a run (a seed is no size)
SIZE_FIELDS = [name for name, kind in leaves(RunConfig())
               if "int" in kind and not name.endswith("seed")]


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestTrain:
    def test_train_writes_all_artifacts(self, tiny_config, tmp_path):
        out = str(tmp_path / "run")
        assert main(["train", "--config", tiny_config, "--out", out]) == 0
        for name in ("loss_history.csv", "metrics.json", "pr_curve.csv",
                     "run_config.json"):
            assert os.path.exists(os.path.join(out, name)), name
        assert os.path.exists(os.path.join(out, "checkpoint", "weights.bin"))
        rows = read_csv(os.path.join(out, "loss_history.csv"))
        assert [r["epoch"] for r in rows] == ["0", "1"]

    def test_repeat_runs_are_byte_identical(self, tiny_config, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["train", "--config", tiny_config, "--out", out1, "--seed", "7"]) == 0
        assert main(["train", "--config", tiny_config, "--out", out2, "--seed", "7"]) == 0
        h1 = open(os.path.join(out1, "loss_history.csv"), "rb").read()
        h2 = open(os.path.join(out2, "loss_history.csv"), "rb").read()
        assert h1 == h2
        w1 = open(os.path.join(out1, "checkpoint", "weights.bin"), "rb").read()
        w2 = open(os.path.join(out2, "checkpoint", "weights.bin"), "rb").read()
        assert w1 == w2

    def test_gamma_zero_total_equals_interaction_loss(self, tiny_config, tmp_path):
        out = str(tmp_path / "g0")
        assert main(["train", "--config", tiny_config, "--out", out, "--gamma", "0"]) == 0
        for row in read_csv(os.path.join(out, "loss_history.csv")):
            assert row["total"] == row["loss_H"]

    def test_zero_epochs_keeps_initialization(self, tiny_config, tmp_path):
        out = str(tmp_path / "e0")
        assert main(["train", "--config", tiny_config, "--out", out,
                     "--epochs", "0"]) == 0
        # checkpoint equals a freshly built model's parameters
        from mmfusion.data import generate
        from mmfusion.model import MultimodalClassifier
        cfg = RunConfig.from_dict(json.loads(open(tiny_config).read()))
        ds = generate(cfg.data)
        fresh = MultimodalClassifier(cfg, vocab_size=len(ds.vocab))
        stored = load_checkpoint(os.path.join(out, "checkpoint"))
        for name, p in fresh.named_parameters():
            assert np.array_equal(stored[name], p.data), name
        assert os.path.exists(os.path.join(out, "metrics.json"))

    def test_invalid_config_exits_2_with_diagnostics(self, tmp_path, capsys):
        bad = dict(TINY)
        bad["fusion"] = {"p": 0.0, "alpha": -1.0}
        bad["decision"] = {"gamma": 3.0}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "keep probability" in err
        assert "alpha" in err
        assert "gamma" in err

    def test_unknown_config_key_exits_2(self, tmp_path):
        doc = dict(TINY)
        doc["optimiser"] = {"lr": 1}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "x")]) == 2

    def test_partial_section_overrides_only_the_fields_it_names(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"text_encoder": {"n_layers": 1}}))
        assert RunConfig.from_dict(json.loads(path.read_text())).text_encoder.d_model == 32
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "x"),
                     "--epochs", "1"]) == 0

    def test_missing_dataset_dir_exits_4(self, tiny_config, tmp_path):
        assert main(["train", "--config", tiny_config, "--data",
                     str(tmp_path / "nope"), "--out", str(tmp_path / "x")]) == 4


class TestGenerateAndEval:
    def test_generate_then_train_then_eval(self, tiny_config, tmp_path):
        data_dir = str(tmp_path / "ds")
        assert main(["generate", "--config", tiny_config, "--out", data_dir]) == 0
        assert os.path.exists(os.path.join(data_dir, "dataset.json"))
        run_dir = str(tmp_path / "run")
        assert main(["train", "--config", tiny_config, "--data", data_dir,
                     "--out", run_dir]) == 0
        eval_dir = str(tmp_path / "eval")
        assert main(["eval", "--config", tiny_config, "--data", data_dir,
                     "--checkpoint", os.path.join(run_dir, "checkpoint"),
                     "--out", eval_dir]) == 0
        report = json.loads(open(os.path.join(eval_dir, "metrics.json")).read())
        trained = json.loads(open(os.path.join(run_dir, "metrics.json")).read())
        assert report["accuracy"] == trained["accuracy"]

    def test_model_is_sized_from_the_loaded_dataset(self, tiny_config, tmp_path):
        # TINY's 8x8 images and 3 classes, trained with the default config
        data_dir = str(tmp_path / "ds")
        assert main(["generate", "--config", tiny_config, "--out", data_dir]) == 0
        run_dir = str(tmp_path / "run")
        assert main(["train", "--data", data_dir, "--epochs", "1", "--out", run_dir]) == 0
        recorded = json.loads(open(os.path.join(run_dir, "run_config.json")).read())
        assert recorded["data"] == json.loads(json.dumps(TINY_SPEC))
        assert recorded["text_encoder"] == RunConfig().to_dict()["text_encoder"]

    def test_sentences_longer_than_max_len_exit_2(self, tiny_config, tmp_path, capsys):
        # TINY's text encoder has 16 positions; the saved sentences run to 20
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**TINY["data"], "sentence_len": [3, 20]}))
        data_dir = str(tmp_path / "ds")
        assert main(["generate", "--spec", str(spec_path), "--out", data_dir]) == 0
        assert main(["train", "--config", tiny_config, "--data", data_dir,
                     "--out", str(tmp_path / "run")]) == 2
        assert "text_encoder.max_len 16 is shorter" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"data": {"vocab_size": 100000}, "text_encoder": {"embedding_dim": 1024}},
        {"data": {"image_size": 256, "patch_size": 1}},
        {"data": {"sentence_len": [4, 40]}},
    ], ids=["parameters", "attention", "max_len"])
    def test_config_is_checked_against_the_loaded_spec_alone(self, tmp_path, doc):
        # each config is over a budget or rule for its own data section, and
        # within them for the default dataset that --data loads instead
        data_dir = str(tmp_path / "ds")
        assert main(["generate", "--out", data_dir]) == 0
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(path), "--data", data_dir, "--epochs", "0",
                     "--out", str(run_dir)]) == 0
        recorded = json.loads((run_dir / "run_config.json").read_text())
        assert recorded["data"] == json.loads(json.dumps(RunConfig().to_dict()["data"]))
        assert "dataset_path" not in recorded

    def test_generate_from_spec_file(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(TINY["data"]))
        out = str(tmp_path / "ds")
        assert main(["generate", "--spec", str(spec_path), "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "images.bin"))

    @pytest.mark.parametrize("command", ["generate", "train"])
    def test_two_class_spec_without_bimodal_information_exits_2(self, tmp_path, capsys,
                                                                 command):
        # at 0.5/0.5 each of the two classes is unique in one modality, and
        # the two share one pattern and one keyword
        path = tmp_path / "doc.json"
        if command == "generate":
            path.write_text(json.dumps({"n_classes": 2}))
            argv = ["generate", "--spec", str(path)]
        else:
            path.write_text(json.dumps({"data": {"n_classes": 2}}))
            argv = ["train", "--config", str(path)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "same pattern and keyword" in err
        assert not (tmp_path / "out").exists()

    def test_spec_with_unknown_field_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"bogus": 1}))
        assert main(["generate", "--spec", str(spec_path),
                     "--out", str(tmp_path / "ds")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "bogus" in err

    def test_spec_that_is_not_json_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{not json")
        assert main(["generate", "--spec", str(spec_path),
                     "--out", str(tmp_path / "ds")]) == 2
        assert "config error" in capsys.readouterr().err


class TestMalformedInput:
    @pytest.mark.parametrize("section, fields, needle", [
        ("trainer", {"epochs": "x"}, "epochs must be an integer"),
        ("trainer", {"lr_text": [1]}, "lr_text must be a number"),
        ("fusion", {"use_reg_channels": 1}, "use_reg_channels must be true or false"),
        ("decision", {"gamma": "0.1"}, "gamma must be a number"),
        ("text_encoder", {"n_heads": 0}, "n_heads must be >= 1"),
        ("data", {"sentence_len": 5}, "sentence_len must be a list"),
        ("data", {"patch_size": 0}, "patch_size must be >= 1"),
        ("data", {"split_ratios": [1.5, -0.5, 0.0]}, "split_ratios entries must be in"),
        ("data", {"split_ratios": [1.0, 0.0, 0.0]}, "without a train or test sample"),
        ("fusion", {"d_f": None}, "unknown fields ['d_f']"),
        ("data", {"sentence_len": [3, 17]}, "text_encoder.max_len 16 is shorter"),
        ("fusion", {"mode": "sequence"}, "fusion: unknown fields ['mode']"),
    ])
    def test_mistyped_config_field_exits_2(self, tmp_path, capsys, section, fields, needle):
        doc = json.loads(json.dumps(TINY))
        doc.setdefault(section, {}).update(fields)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and needle in err

    def test_mistyped_d_model_is_the_one_problem(self, tmp_path, capsys):
        # the width-equality rule compares two well-typed widths only
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"text_encoder": {"d_model": "32"}}))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: text_encoder: d_model must be an integer, got '32'"]

    def test_infinite_learning_rate_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"trainer": {"lr_other": Infinity, "epochs": 1}, '
                        '"data": {"samples_per_class": 10}}')
        out = tmp_path / "x"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: trainer: lr_other must be finite, got inf" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("field", SIZE_FIELDS)
    def test_oversized_field_exits_2(self, tmp_path, capsys, field):
        section, _, name = field.partition(".")
        doc = json.loads(json.dumps(TINY))
        doc.setdefault(section, {})[name] = [3, 2**70] if name == "sentence_len" else 2**70
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        # ``--epochs`` would replace the config's epoch count, so that one
        # comes through the flag
        argv = ["train", "--config", str(path), "--out", str(tmp_path / "x"), "--epochs",
                str(2**70) if name == "epochs" else "0"]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert f"{section}: {name}" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "generate"])
    def test_images_over_the_budget_exit_2(self, tmp_path, capsys, command):
        # each size is in range; the images would take 117 GiB
        doc = json.loads(json.dumps(TINY))
        doc["data"].update(samples_per_class=10_000, image_size=1024)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        argv = [command, "--config", str(path), "--out", str(tmp_path / "x")]
        start = time.perf_counter()
        assert main(argv + (["--epochs", "0"] if command == "train" else [])) == 2
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert "over the 1 GiB budget" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_model_over_the_parameter_budget_exits_2(self, tmp_path, capsys):
        # each encoder size at its cap: about 1e11 parameters
        caps = dict(d_model=4096, n_heads=256, n_layers=256, ffn_width=16384,
                    embedding_dim=4096, share_layers=False, max_len=4096)
        doc = dict(TINY, text_encoder=caps, image_encoder=caps)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert "parameters, over the budget of 67,108,864" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["train", "generate"])
    def test_token_lists_over_the_budget_exit_2(self, tmp_path, capsys, command):
        # 1-pixel images; the token lists would hold 81,920,000 tokens
        doc = json.loads(json.dumps(TINY))
        doc["text_encoder"]["max_len"] = 4096
        doc["data"].update(n_classes=4, samples_per_class=5_000, image_size=1,
                           patch_size=1, sentence_len=[4000, 4096])
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        argv = [command, "--config", str(path), "--out", str(tmp_path / "x")]
        start = time.perf_counter()
        assert main(argv + (["--epochs", "0"] if command == "train" else [])) == 2
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert "over the budget of 2**24" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("doc", [[1, 2], {"trainer": 5}])
    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert "must be a JSON object" in capsys.readouterr().err


def _drop(field):
    def mutate(manifest):
        for entry in manifest.values():
            del entry[field]
        return json.dumps(manifest)
    return mutate


def _unknown_dtype(manifest):
    next(iter(manifest.values()))["dtype"] = "float16"
    return json.dumps(manifest)


def _extra_entry(manifest):
    # a parameter the model lacks, as hybrid checkpoints with the removed
    # learned vote carried; it holds no values, so weights.bin still fits
    manifest["vote.vote_logits"] = {"shape": [0], "dtype": "float32", "crc32": 0}
    return json.dumps(manifest)


def _crc32_of_the_next_entry(manifest):
    first, second = list(manifest.values())[:2]
    first["crc32"] = second["crc32"]
    return json.dumps(manifest)


def _pos_emb_reads_word_emb(manifest):
    # in the older layout, which stored offsets, an entry pointed at the bytes
    # of another entry of its shape
    old = with_offsets(manifest)
    for field in ("offset", "crc32"):
        old["text_encoder.pos_emb"][field] = old["text_encoder.word_emb"][field]
    return json.dumps(old)


def _more_than_64_axes(manifest):
    next(iter(manifest.values()))["shape"] += [1] * 70
    return json.dumps(manifest)


def _axis_past_numpy_limit(manifest):
    # an entry as older checkpoints wrote it; the loader ignores offset and length
    manifest["huge"] = {"shape": [0, 2**70], "dtype": "float32", "offset": 0, "length": 0,
                        "crc32": 0}
    return json.dumps(manifest)


def _first_nan(values):
    values[0] = np.nan


def _all_huge(values):
    values.fill(1e20)


def _first_above_one(values):
    values[0] = 2.0


def _last_nan(values):
    values[-1] = np.nan


def _edit_patch_proj(good, bad, edit):
    """Save checkpoint ``good`` as ``bad`` with ``edit`` applied in place to
    the flattened image patch projection's weights, so the checkpoint loads
    and only the numbers are wrong; attention's softmax input goes
    non-finite."""
    weights = load_checkpoint(good)
    edit(weights["image_encoder.patch_proj.weight"].reshape(-1))
    save_checkpoint([(name, Tensor(arr)) for name, arr in weights.items()], bad)
    return bad


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    config = root / "config.json"
    config.write_text(json.dumps(TINY))
    assert main(["train", "--config", str(config), "--out", str(root / "run")]) == 0
    return str(config), root / "run" / "checkpoint"


class TestCorruptCheckpoint:
    @pytest.mark.parametrize("mutate", [
        lambda m: json.dumps(m)[:len(json.dumps(m)) // 2],
        lambda m: "[1, 2]",
        _drop("crc32"), _crc32_of_the_next_entry, _drop("shape"), _drop("dtype"),
        _unknown_dtype, _extra_entry, _pos_emb_reads_word_emb, _more_than_64_axes,
        _axis_past_numpy_limit,
    ], ids=["partial", "not_an_object", "no_crc32", "crc32_of_the_next_entry", "no_shape",
            "no_dtype", "unknown_dtype", "extra_entry", "older_layout_overlap",
            "more_than_64_axes", "axis_past_numpy_limit"])
    def test_eval_exits_4(self, trained_checkpoint, tmp_path, capsys, mutate):
        config, good = trained_checkpoint
        bad = tmp_path / "checkpoint"
        shutil.copytree(good, bad)
        manifest = json.loads((good / "manifest.json").read_text())
        (bad / "manifest.json").write_text(mutate(manifest))
        assert main(["eval", "--config", config, "--checkpoint", str(bad),
                     "--out", str(tmp_path / "eval")]) == 4
        err = capsys.readouterr().err
        assert "i/o error" in err and "Traceback" not in err

    def test_flipped_byte_exits_4(self, trained_checkpoint, tmp_path, capsys):
        # the lowest mantissa bit of the first weight: a finite, same-size
        # change that only the checksum sees
        config, good = trained_checkpoint
        bad = tmp_path / "checkpoint"
        shutil.copytree(good, bad)
        blob = bytearray((good / "weights.bin").read_bytes())
        blob[0] ^= 1
        (bad / "weights.bin").write_bytes(bytes(blob))
        assert main(["eval", "--config", config, "--checkpoint", str(bad),
                     "--out", str(tmp_path / "eval")]) == 4
        assert "crc32" in capsys.readouterr().err

    def test_bytes_after_the_last_entry_exit_4(self, trained_checkpoint, tmp_path, capsys):
        config, good = trained_checkpoint
        bad = tmp_path / "checkpoint"
        shutil.copytree(good, bad)
        with open(bad / "weights.bin", "ab") as fh:
            fh.write(bytes(22))
        assert main(["eval", "--config", config, "--checkpoint", str(bad),
                     "--out", str(tmp_path / "eval")]) == 4
        err = capsys.readouterr().err
        assert "i/o error" in err and "22 bytes after its last entry" in err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("edit", [_first_nan, _all_huge],
                             ids=["nan_weight", "huge_weights"])
    def test_non_finite_forward_exits_3(self, trained_checkpoint, tmp_path, capsys,
                                        edit):
        config, good = trained_checkpoint
        bad = _edit_patch_proj(good, tmp_path / "checkpoint", edit)
        assert main(["eval", "--config", config, "--checkpoint", str(bad),
                     "--out", str(tmp_path / "eval")]) == 3
        err = capsys.readouterr().err
        assert "numerical abort" in err and "non-finite" in err
        assert "Traceback" not in err

    def test_overflow_raises_no_numpy_warning(self, trained_checkpoint, tmp_path,
                                              capsys):
        config, good = trained_checkpoint
        bad = _edit_patch_proj(good, tmp_path / "checkpoint", _all_huge)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["eval", "--config", config, "--checkpoint", str(bad),
                         "--out", str(tmp_path / "eval")]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capsys.readouterr().err.startswith("numerical abort:")

    def test_overflow_stderr_is_the_abort_line_alone(self, trained_checkpoint,
                                                     tmp_path):
        config, good = trained_checkpoint
        bad = _edit_patch_proj(good, tmp_path / "checkpoint", _all_huge)
        proc = subprocess.run(
            [sys.executable, "-m", "mmfusion", "eval", "--config", config,
             "--checkpoint", str(bad), "--out", str(tmp_path / "eval")],
            capture_output=True, text=True, env=package_env())
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical abort:"), proc.stderr


def _truncate_or_flip(raw, kind, data):
    """``raw`` cut short at a drawn length, or with one drawn byte flipped."""
    if kind == "truncate":
        return raw[:data.draw(st.integers(0, len(raw) - 1), label="keep")]
    at = data.draw(st.integers(0, len(raw) - 1), label="at")
    mask = data.draw(st.integers(1, 255), label="mask")
    return raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1:]


def _fuzz_checkpoint_file(read, data):
    """Draw a mutation of one checkpoint file, whose bytes ``read(name)``
    returns: a truncation or a byte flip of either file, or a retyped field,
    a dropped field or a dropped entry of the manifest. Returns the file's
    name and its mutated bytes."""
    name = data.draw(st.sampled_from(["manifest.json", "weights.bin"]), label="file")
    raw = read(name)
    kind = data.draw(st.sampled_from(
        ["truncate", "flip"] + (["retype", "drop_field", "drop_entry"]
                                if name == "manifest.json" else [])), label="kind")
    if kind in ("truncate", "flip"):
        return name, _truncate_or_flip(raw, kind, data)
    manifest = json.loads(raw)
    entry = manifest[data.draw(st.sampled_from(sorted(manifest)), label="entry")]
    if kind == "drop_entry":
        manifest = {k: v for k, v in manifest.items() if v is not entry}
    else:
        field = data.draw(st.sampled_from(sorted(entry)), label="field")
        if kind == "drop_field":
            del entry[field]
        else:
            entry[field] = data.draw(st.sampled_from(
                [None, True, -1, 1.5, 2**70, "7", [], {}, [3, 4], [1] * 70]), label="value")
    return name, json.dumps(manifest).encode()


class TestCheckpointFuzz:
    @settings(deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_eval_exits_0_or_4_without_traceback(self, trained_checkpoint, data):
        config, good = trained_checkpoint
        name, raw = _fuzz_checkpoint_file(lambda f: (good / f).read_bytes(), data)
        with tempfile.TemporaryDirectory() as tmp:
            bad = os.path.join(tmp, "checkpoint")
            shutil.copytree(good, bad)
            with open(os.path.join(bad, name), "wb") as fh:
                fh.write(raw)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["eval", "--config", config, "--checkpoint", bad,
                             "--out", os.path.join(tmp, "eval")])
        assert code in (0, 4) and "Traceback" not in err.getvalue()


def _fuzz_json(raw, data):
    """Draw a mutation of the bytes of a JSON object: a truncation, a byte
    flip, or one value anywhere in the document retyped or dropped."""
    kind = data.draw(st.sampled_from(["truncate", "flip", "retype", "drop"]),
                     label="kind")
    if kind in ("truncate", "flip"):
        return _truncate_or_flip(raw, kind, data)
    doc = json.loads(raw)
    parent = doc
    while True:
        key = data.draw(st.sampled_from(
            sorted(parent) if isinstance(parent, dict) else range(len(parent))),
            label="key")
        child = parent[key]
        if not (isinstance(child, (dict, list)) and child
                and data.draw(st.booleans(), label="descend")):
            break
        parent = child
    if kind == "drop":
        del parent[key]
    else:
        parent[key] = data.draw(st.sampled_from(
            [None, True, 1.5, "7", 2**70, [], {}, [3, 4]]), label="value")
    return json.dumps(doc).encode()


def _exits_cleanly(argv):
    """Run ``main(argv)``; it must exit 0, 2, 3 or 4 with no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4) and "Traceback" not in err.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def saved_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("saved")
    config = root / "config.json"
    config.write_text(json.dumps(TINY))
    assert main(["generate", "--config", str(config), "--out", str(root / "ds")]) == 0
    return str(config), root / "ds"


class TestInputFuzz:
    """Mutated config, spec, dataset and image files; ``--epochs 0`` keeps a
    mutated epoch count from starting a long training."""

    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_config(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "wb") as fh:
                fh.write(_fuzz_json(json.dumps(TINY).encode(), data))
            _exits_cleanly(["train", "--config", path, "--epochs", "0",
                            "--out", os.path.join(tmp, "run")])

    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_spec(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spec.json")
            with open(path, "wb") as fh:
                fh.write(_fuzz_json(json.dumps(TINY_SPEC).encode(), data))
            _exits_cleanly(["generate", "--spec", path,
                            "--out", os.path.join(tmp, "ds")])

    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_dataset(self, saved_dataset, data):
        config, good = saved_dataset
        with tempfile.TemporaryDirectory() as tmp:
            bad = os.path.join(tmp, "ds")
            shutil.copytree(good, bad)
            with open(os.path.join(bad, "dataset.json"), "wb") as fh:
                fh.write(_fuzz_json((good / "dataset.json").read_bytes(), data))
            _exits_cleanly(["train", "--config", config, "--data", bad,
                            "--epochs", "0", "--out", os.path.join(tmp, "run")])

    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_images(self, saved_dataset, data):
        """A truncated or flipped ``images.bin`` fails its size or crc32
        check, and so do NaN pixels under the old crc32; under a recomputed
        one they fail the pixel check. Each exits 4."""
        config, good = saved_dataset
        raw = (good / "images.bin").read_bytes()
        doc = json.loads((good / "dataset.json").read_text())
        kind = data.draw(st.sampled_from(["truncate", "flip", "nan"]), label="kind")
        if kind == "nan":
            pixels = np.frombuffer(raw, dtype="<f4").copy()
            at = data.draw(st.integers(0, pixels.size - 1), label="at")
            pixels[at:at + data.draw(st.integers(1, pixels.size - at), label="n")] = np.nan
            raw = pixels.tobytes()
            if data.draw(st.booleans(), label="recompute_crc32"):
                doc["images_crc32"] = zlib.crc32(raw)
        else:
            raw = _truncate_or_flip(raw, kind, data)
        with tempfile.TemporaryDirectory() as tmp:
            bad = os.path.join(tmp, "ds")
            shutil.copytree(good, bad)
            with open(os.path.join(bad, "images.bin"), "wb") as fh:
                fh.write(raw)
            with open(os.path.join(bad, "dataset.json"), "w") as fh:
                fh.write(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["train", "--config", config, "--data", bad,
                             "--epochs", "0", "--out", os.path.join(tmp, "run")])
        assert code == 4 and "Traceback" not in err.getvalue(), err.getvalue()


def _module_exit(argv):
    """Exit code of ``python -m mmfusion`` run on ``argv``, which must print
    no traceback."""
    proc = subprocess.run([sys.executable, "-m", "mmfusion", *argv],
                          capture_output=True, text=True, env=package_env())
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc.returncode


def _is_json(raw):
    try:
        json.loads(raw)
    except ValueError:      # JSONDecodeError, UnicodeDecodeError
        return False
    return True


class TestModuleFuzz:
    """The fuzzers' mutations through ``python -m mmfusion``, one process per
    example. A config that is not JSON exits 2. A checkpoint or dataset file
    that is not JSON, or whose bytes a length or crc32 check covers, exits
    4. Any other mutation exits cleanly, and no run prints a traceback."""

    @settings(deadline=None, max_examples=12)
    @given(data=st.data())
    def test_config(self, data):
        raw = _fuzz_json(json.dumps(TINY).encode(), data)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "wb") as fh:
                fh.write(raw)
            code = _module_exit(["train", "--config", path, "--epochs", "0",
                                 "--out", os.path.join(tmp, "run")])
        assert code == 2 if not _is_json(raw) else code in (0, 2, 3, 4)

    @settings(deadline=None, max_examples=12)
    @given(data=st.data())
    def test_checkpoint(self, trained_checkpoint, data):
        config, good = trained_checkpoint
        name, raw = _fuzz_checkpoint_file(lambda f: (good / f).read_bytes(), data)
        with tempfile.TemporaryDirectory() as tmp:
            bad = os.path.join(tmp, "checkpoint")
            shutil.copytree(good, bad)
            with open(os.path.join(bad, name), "wb") as fh:
                fh.write(raw)
            code = _module_exit(["eval", "--config", config, "--checkpoint", bad,
                                 "--out", os.path.join(tmp, "eval")])
        assert code == 4 if name == "weights.bin" or not _is_json(raw) else code in (0, 4)

    @settings(deadline=None, max_examples=12)
    @given(data=st.data())
    def test_dataset(self, saved_dataset, data):
        config, good = saved_dataset
        name = data.draw(st.sampled_from(["dataset.json", "images.bin"]), label="file")
        raw = (good / name).read_bytes()
        if name == "dataset.json":
            raw = _fuzz_json(raw, data)
        else:
            kind = data.draw(st.sampled_from(["truncate", "flip"]), label="kind")
            raw = _truncate_or_flip(raw, kind, data)
        with tempfile.TemporaryDirectory() as tmp:
            bad = os.path.join(tmp, "ds")
            shutil.copytree(good, bad)
            with open(os.path.join(bad, name), "wb") as fh:
                fh.write(raw)
            code = _module_exit(["train", "--config", config, "--data", bad,
                                 "--epochs", "0", "--out", os.path.join(tmp, "run")])
        assert code == 4 if name == "images.bin" or not _is_json(raw) else code in (0, 2, 3, 4)


def _truncate_to_spec(doc):
    return '{"spec": '


def _unknown_spec_field(doc):
    doc["spec"]["bogus"] = 1
    return json.dumps(doc)


def _invalid_spec(doc):
    doc["spec"]["patch_size"] = 3       # does not divide the 8-pixel images
    return json.dumps(doc)


def _image_shape_not_the_spec_s(doc):
    doc["spec"]["image_size"] = 16
    return json.dumps(doc)


def _first_record(**changes):
    def mutate(doc):
        doc["samples"][0].update(changes)
        return json.dumps(doc)
    return mutate


def _token_outside_vocab(doc):
    doc["samples"][0]["tokens"][0] = doc["spec"]["vocab_size"]
    return json.dumps(doc)


def _relabel_split(old, new):
    def mutate(doc):
        for rec in doc["samples"]:
            if rec["split"] == old:
                rec["split"] = new
        return json.dumps(doc)
    return mutate


class TestCorruptDataset:
    @pytest.mark.parametrize("mutate", [
        _truncate_to_spec, _unknown_spec_field, _invalid_spec,
        _image_shape_not_the_spec_s, _first_record(label=3), _first_record(label=-1),
        _first_record(split="holdout"), _first_record(tokens=[]),
        _first_record(tokens=[2] * 6), _token_outside_vocab,
        _relabel_split("test", "train"), _relabel_split("train", "val"),
    ], ids=["truncated", "bad_spec", "invalid_spec",
            "image_shape_mismatch", "label_too_large", "negative_label",
            "unknown_split", "no_tokens", "too_many_tokens", "token_outside_vocab",
            "no_test_records", "no_train_records"])
    def test_train_exits_4_without_traceback(self, tiny_config, tmp_path, mutate):
        data_dir = tmp_path / "ds"
        assert main(["generate", "--config", tiny_config, "--out", str(data_dir)]) == 0
        doc = json.loads((data_dir / "dataset.json").read_text())
        (data_dir / "dataset.json").write_text(mutate(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "mmfusion", "train", "--config", tiny_config,
             "--data", str(data_dir), "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env=package_env())
        assert proc.returncode == 4, proc.stderr
        assert "i/o error" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "run").exists()

    def test_flipped_byte_exits_4(self, tiny_config, tmp_path, capsys):
        # the lowest mantissa bit of the first pixel: a finite, same-size
        # change that only the checksum sees
        data_dir = tmp_path / "ds"
        assert main(["generate", "--config", tiny_config, "--out", str(data_dir)]) == 0
        blob = bytearray((data_dir / "images.bin").read_bytes())
        blob[0] ^= 1
        (data_dir / "images.bin").write_bytes(bytes(blob))
        assert main(["train", "--config", tiny_config, "--data", str(data_dir),
                     "--out", str(tmp_path / "run")]) == 4
        assert "crc32" in capsys.readouterr().err

    @pytest.mark.parametrize("change, records", [("drop_record", 29), ("extra_image", 30)])
    def test_image_bytes_not_the_records_times_the_image_size_exit_4(
            self, tiny_config, tmp_path, change, records):
        # images.bin is one [N, H, W, C] array: one image more than the
        # records (under a recomputed crc32), or one record fewer, is caught
        data_dir = tmp_path / "ds"
        assert main(["generate", "--config", tiny_config, "--out", str(data_dir)]) == 0
        doc = json.loads((data_dir / "dataset.json").read_text())
        if change == "drop_record":
            doc["samples"].pop()
        else:
            blob = (data_dir / "images.bin").read_bytes()
            blob += blob[:8 * 8 * 4]
            (data_dir / "images.bin").write_bytes(blob)
            doc["images_crc32"] = zlib.crc32(blob)
        (data_dir / "dataset.json").write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "mmfusion", "train", "--config", tiny_config,
             "--data", str(data_dir), "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env=package_env())
        assert proc.returncode == 4, proc.stderr
        assert f"bytes, not {records} records x 256 bytes of a 8x8x1 float32 image" \
            in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("edit", [_first_above_one, _last_nan],
                             ids=["pixel_above_one", "nan_pixel"])
    def test_bad_pixels_exit_4_without_traceback(self, tiny_config, tmp_path, edit):
        # images_crc32 is recomputed, so only the pixel values are wrong
        data_dir = tmp_path / "ds"
        assert main(["generate", "--config", tiny_config, "--out", str(data_dir)]) == 0
        pixels = np.fromfile(data_dir / "images.bin", dtype="<f4")
        edit(pixels)
        (data_dir / "images.bin").write_bytes(pixels.tobytes())
        doc = json.loads((data_dir / "dataset.json").read_text())
        doc["images_crc32"] = zlib.crc32(pixels.tobytes())
        (data_dir / "dataset.json").write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "mmfusion", "train", "--config", tiny_config,
             "--data", str(data_dir), "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env=package_env())
        assert proc.returncode == 4, proc.stderr
        assert "outside [0, 1] or not finite" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestAblate:
    def test_eight_rows_with_required_columns(self, tiny_config, tmp_path):
        out = str(tmp_path / "abl")
        assert main(["ablate", "--config", tiny_config, "--out", out]) == 0
        rows = read_csv(os.path.join(out, "ablation.csv"))
        assert len(rows) == 8
        combos = {(r["HAM"], r["RM"], r["MLF"]) for r in rows}
        assert len(combos) == 8
        for r in rows:
            assert r["error"] == ""
            assert 0.0 <= float(r["accuracy"]) <= 1.0
            assert r["seed"] == "0"

    def test_ablate_reproducible(self, tiny_config, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["ablate", "--config", tiny_config, "--out", out1])
        main(["ablate", "--config", tiny_config, "--out", out2])
        assert open(os.path.join(out1, "ablation.csv")).read() == \
            open(os.path.join(out2, "ablation.csv")).read()

    def test_row_failure_does_not_discard_other_rows(self, tiny_config, tmp_path,
                                                     monkeypatch):
        import mmfusion.cli as cli
        real = cli._train_once
        calls = {"n": 0}

        def flaky(cfg, dataset, out_dir=None):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("synthetic failure for isolation test")
            return real(cfg, dataset, out_dir=out_dir)

        monkeypatch.setattr(cli, "_train_once", flaky)
        out = str(tmp_path / "abl")
        assert main(["ablate", "--config", tiny_config, "--out", out]) == 0
        rows = read_csv(os.path.join(out, "ablation.csv"))
        assert len(rows) == 8
        failed = [r for r in rows if r["error"]]
        assert len(failed) == 1 and "synthetic failure" in failed[0]["error"]
        assert sum(1 for r in rows if r["accuracy"]) == 7

    def test_gamma_zero_exits_2(self, tiny_config, tmp_path, capsys):
        # the MLF=0 variants set gamma to 0, so at gamma 0 the MLF=1 rows repeat them
        out = tmp_path / "abl"
        assert main(["ablate", "--config", tiny_config, "--gamma", "0",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert ("config error: ablate needs decision.gamma > 0, got 0.0: its MLF=0 "
                "variants set gamma to 0, so every MLF=1 row would repeat one") in err
        assert "Traceback" not in err
        assert not out.exists()


class TestGammaSweep:
    def test_default_grid_six_rows_echoing_gammas(self, tiny_config, tmp_path):
        out = str(tmp_path / "sweep")
        assert main(["gamma-sweep", "--config", tiny_config, "--out", out]) == 0
        rows = read_csv(os.path.join(out, "gamma_sweep.csv"))
        assert [float(r["gamma"]) for r in rows] == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        for r in rows:
            assert r["error"] == ""
        notes = json.loads(open(os.path.join(out, "gamma_sweep_notes.json")).read())
        assert notes["full_scale_reference_optimum"] == 0.1

    def test_out_of_range_grid_rejected(self, tiny_config, tmp_path):
        assert main(["gamma-sweep", "--config", tiny_config,
                     "--out", str(tmp_path / "s"), "--grid", "0.0", "0.7"]) == 2


@pytest.mark.parametrize("modality", ["image", "text"])
@pytest.mark.parametrize("command", ["ablate", "gamma-sweep"])
def test_grid_command_on_a_unimodal_config_exits_2(command, modality, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(TINY, modality=modality)))
    out = tmp_path / "grid"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {command} needs modality 'multimodal', got '{modality}'" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_attention_that_cannot_fit_exits_2(tmp_path, capsys):
    # 65,536 one-pixel patches: the parameter count is in budget, but one
    # sample's [2, 65537, 65537] image attention would take 32 GiB
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"data": {"image_size": 256, "patch_size": 1,
                                         "samples_per_class": 2},
                                "trainer": {"epochs": 1}}))
    out = tmp_path / "run"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert ("config error: the image encoder attends over 65537 positions; one sample's "
            "probabilities would take 32.0 GiB, over the 1 GiB budget "
            "(2 heads x 65537^2 x 4 bytes)") in err
    assert "Traceback" not in err
    assert not out.exists()


class TestFlags:
    @pytest.mark.parametrize("command,flag,value", [
        ("generate", "--seed", "1"), ("generate", "--mode", "pooled"),
        ("generate", "--vote", "uniform"), ("generate", "--gamma", "0.2"),
        ("eval", "--seed", "1"), ("eval", "--gamma", "0.2"),
        ("gamma-sweep", "--gamma", "0.2"),
        ("train", "--mode", "pooled"), ("eval", "--mode", "pooled"),
        ("ablate", "--mode", "pooled"), ("gamma-sweep", "--mode", "pooled"),
        ("bench-attention", "--mode", "pooled"),
        ("bench-attention", "--vote", "uniform"),
        ("bench-attention", "--gamma", "0.2"),
    ])
    def test_flag_the_command_does_not_read_is_rejected(self, command, flag, value,
                                                        tmp_path, capsys):
        argv = [command, "--out", str(tmp_path / "x"), flag, value]
        if command == "eval":
            argv += ["--checkpoint", str(tmp_path / "ckpt")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_learned_vote_is_rejected(self, tiny_config, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", tiny_config, "--out", str(tmp_path / "a"),
                  "--vote", "learned"])
        assert exc.value.code == 2
        doc = dict(TINY, decision={"vote": "learned"})
        path = tmp_path / "learned.json"
        path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "b")]) == 2


def test_readme_table_lists_the_flags_each_subcommand_registers():
    rows = re.findall(r"^\| (`.+?) \| (.+) \|$", (ROOT / "README.md").read_text(), re.M)
    listed = {command: sorted(re.findall(r"`(--[\w-]+)", flags))
              for commands, flags in rows for command in re.findall(r"`([\w-]+)`", commands)}
    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    registered = {command: sorted(flag for a in p._actions for flag in a.option_strings
                                  if flag not in ("--config", "--out", "-h", "--help"))
                  for command, p in subcommands.items()}
    assert listed == registered


class TestBench:
    def test_three_topologies_with_positive_medians(self, tiny_config, tmp_path):
        out = str(tmp_path / "bench")
        assert main(["bench-attention", "--config", tiny_config, "--out", out,
                     "--repeats", "10"]) == 0
        rows = read_csv(os.path.join(out, "bench.csv"))
        assert sorted(r["topology"] for r in rows) == ["hybrid", "interaction", "merged"]
        for r in rows:
            assert float(r["median_ms"]) > 0.0
            assert int(r["parameters"]) > 0
        ref = json.loads(open(os.path.join(out, "bench_reference.json")).read())
        assert ref["latency_ms"]["hybrid"] == 11.25

    @pytest.mark.parametrize("config, text_len, image_len", [
        (None, 8, 16),          # the default data: 8-token sentences, 4 x 4 patches
        (TINY, 5, 4),           # sentence_len [3, 5], an 8-pixel image of 4-pixel patches
        ({"data": {"sentence_len": [1, 2], "image_size": 30, "patch_size": 3}}, 3, 100),
    ])
    def test_times_the_lengths_of_the_configured_data(self, tmp_path, monkeypatch,
                                                      config, text_len, image_len):
        seen = {}

        def fake_bench(**kwargs):
            seen.update(kwargs)
            return [{"topology": "hybrid", "parameters": 1, "median_ms": 1.0, "p95_ms": 1.0}]

        monkeypatch.setattr(cli, "bench_attention", fake_bench)
        argv = ["bench-attention", "--out", str(tmp_path / "b")]
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        assert main(argv) == 0
        assert (seen["text_len"], seen["image_len"]) == (text_len, image_len)

    @pytest.mark.parametrize("config, where", [
        ({"modality": "text", "data": {"image_size": 256, "patch_size": 1}},
         "the fusion path attends over 65544 positions"),
        ({"modality": "image", "text_encoder": {"n_heads": 16, "d_model": 32},
          "data": {"image_size": 96, "patch_size": 1}},
         "the fusion path attends over 9224 positions"),
    ])
    def test_unimodal_config_over_the_fusion_budget_exits_2(self, tmp_path, capsys,
                                                            monkeypatch, config, where):
        monkeypatch.setattr(cli, "bench_attention", None)   # never reached
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["bench-attention", "--config", str(path),
                     "--out", str(tmp_path / "b")]) == 2
        assert where in capsys.readouterr().err

    def test_too_few_repeats_rejected(self, tiny_config, tmp_path):
        assert main(["bench-attention", "--config", tiny_config,
                     "--out", str(tmp_path / "b"), "--repeats", "3"]) == 2


def test_module_invocation_round_trip(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY))
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "mmfusion", "train", "--config", str(cfg),
         "--out", str(out)],
        capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert (out / "loss_history.csv").exists()
