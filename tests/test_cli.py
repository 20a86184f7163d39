import ast
import csv
import dataclasses
import filecmp
import inspect
import math
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

from bisrnet import __version__, cli
from bisrnet.cli import build_parser, main
from bisrnet.hst import write_hst
from bisrnet.network import NetworkConfig
from bisrnet.train import TrainConfig


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def run_cli(*argv):
    return main(list(argv))


class TestSimulate:
    def test_synthetic_outputs_and_shapes(self, tmp_path):
        out = tmp_path / "sim"
        rc = run_cli("simulate", "--synth", "--seed", "7", "--height", "32",
                     "--width", "32", "--wavelengths", "8", "--out", str(out))
        assert rc == 0
        from bisrnet.hst import read_hst

        y = read_hst(out / "measurement.hst")
        # width follows W + step * (bands - 1)
        assert y.shape == (1, 1, 32, 32 + 2 * 7)
        assert read_hst(out / "shifted_input.hst").shape == (1, 8, 32, 32)
        assert read_hst(out / "shifted_mask.hst").shape == (1, 8, 32, 32)
        assert (out / "manifest.txt").exists()

    def test_seeded_runs_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("simulate", "--synth", "--seed", "7", "--height", "32",
                           "--width", "32", "--wavelengths", "4", "--out", str(out)) == 0
        for name in ("measurement.hst", "shifted_input.hst", "shifted_mask.hst"):
            assert filecmp.cmp(a / name, b / name, shallow=False), name

    def test_mismatched_scene_mask_fails(self, tmp_path, capsys):
        scene = tmp_path / "scene.hst"
        mask = tmp_path / "mask.hst"
        write_hst(scene, np.random.default_rng(0).random((1, 4, 16, 16)).astype(np.float32))
        write_hst(mask, np.random.default_rng(1).random((1, 1, 12, 16)).astype(np.float32))
        rc = run_cli("simulate", "--scene", str(scene), "--mask", str(mask),
                     "--out", str(tmp_path / "out"))
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,shape,want", [
        ("--scene", (2, 4, 8, 8), "(1, bands, h, w)"),
        ("--mask", (1, 3, 8, 8), "(1, 1, h, w)"),
    ], ids=["scene", "mask"])
    def test_input_of_another_shape_fails(self, tmp_path, capsys, flag, shape, want):
        rng = np.random.default_rng(2)
        files = {"--scene": (1, 4, 8, 8), "--mask": (1, 1, 8, 8)}
        files[flag] = shape
        argv = []
        for name, dims in files.items():
            path = tmp_path / f"{name[2:]}.hst"
            write_hst(path, rng.random(dims).astype(np.float32))
            argv += [name, str(path)]
        out = tmp_path / "out"
        assert run_cli("simulate", *argv, "--out", str(out)) == 1
        assert f"{flag} must be {want}, got {shape}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_fails_with_path(self, tmp_path, capsys):
        rc = run_cli("simulate", "--scene", str(tmp_path / "nope.hst"),
                     "--mask", str(tmp_path / "nope2.hst"), "--out", str(tmp_path / "out"))
        assert rc == 1
        assert "nope" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--bogus"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestCount:
    def test_table_shape_and_totals(self, capsys):
        assert run_cli("count", "--height", "64", "--width", "64",
                       "--channels", "8", "--wavelengths", "8") == 0
        rows = [r.split(",") for r in capsys.readouterr().out.strip().splitlines()]
        assert rows[0] == ["part", "params_f", "params_b", "ops_f", "ops_b"]
        names = [r[0] for r in rows[1:]]
        assert names == ["embedding", "encoder", "bottleneck", "decoder", "mapping", "total"]
        body = {r[0]: [int(v) for v in r[1:]] for r in rows[1:]}
        assert body["total"][1] == sum(body[n][1] for n in names[:-1])

    def test_size_the_network_rejects_fails(self, capsys):
        # 10x10 would count the mapping at 8x8 after two floor halvings.
        assert run_cli("count", "--height", "10", "--width", "10") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "divisible by 4" in captured.err

    def test_full_scale_totals_near_published(self, capsys):
        assert run_cli("count") == 0
        rows = [r.split(",") for r in capsys.readouterr().out.strip().splitlines()]
        total = {r[0]: r[1:] for r in rows[1:]}["total"]
        params_b, ops_b = int(total[1]), int(total[3])
        assert abs(params_b / 36_000 - 1) < 0.15
        assert abs(ops_b / 1.18e9 - 1) < 0.15


class TestSteAnalyze:
    def test_tanh_area_value(self, tmp_path, capsys):
        out = tmp_path / "ste"
        assert run_cli("ste-analyze", "--ste", "tanh", "--alpha", "2", "--out", str(out)) == 0
        rows = read_csv(out / "ste_areas.csv")
        assert rows[0] == ["kind", "alpha", "area", "area_numeric"]
        area = float(rows[1][2])
        assert area == pytest.approx(math.log(2), abs=1e-4)
        assert "0.6931" in capsys.readouterr().out

    def test_curves_cover_all_kinds(self, tmp_path):
        out = tmp_path / "ste"
        assert run_cli("ste-analyze", "--out", str(out)) == 0
        rows = read_csv(out / "ste_curves.csv")
        kinds = {r[0] for r in rows[1:]}
        assert kinds == {"clip", "quad", "quad_bounded", "tanh"}


class TestPackBench:
    # Packing runs along channels into 64-bit words, so 28 channels fill 28
    # of a word's 64 bits: 4 B per float32 element against 8/28 B packed.
    def ratio(self, capsys, shape):
        assert run_cli("pack-bench", "--shape", shape) == 0
        out = capsys.readouterr().out
        return float(out.rsplit("ratio", 1)[1].split("x")[0])

    def test_reduction_ratio(self, capsys):
        assert self.ratio(capsys, "1,28,256,256") == 14.0

    def test_reduction_ratio_full_word(self, capsys):
        assert self.ratio(capsys, "1,64,32,32") == 32.0

    @pytest.mark.parametrize("shape", ["0,28,1,1", "1,-2,1,1"], ids=["zero", "negative"])
    def test_size_below_one_fails(self, tmp_path, capsys, shape):
        out = tmp_path / "bench"
        assert run_cli("pack-bench", "--shape", shape, "--out", str(out)) == 1
        assert f"--shape sizes must be at least 1, got '{shape}'" in capsys.readouterr().err
        assert not out.exists()


class TestTrainEval:
    def test_short_train_writes_history_and_checkpoint(self, tmp_path):
        out = tmp_path / "run"
        rc = run_cli("train", "--channels", "8", "--wavelengths", "8", "--steps", "3",
                     "--batch", "1", "--patch", "16", "--seed", "1", "--out", str(out))
        assert rc == 0
        rows = read_csv(out / "history.csv")
        assert rows[0] == ["step", "lr", "loss"]
        assert len(rows) == 4
        assert (out / "checkpoint" / "index.txt").exists()
        assert (out / "manifest.txt").exists()

    @pytest.mark.parametrize("flag,message", [
        ("--scenes", "scene pool size must be at least 1, got 0"),
        ("--scene-size", "scene dims must be positive, got 8x0x0"),
    ], ids=["scenes", "scene_size"])
    def test_train_zero_scene_value_fails(self, tmp_path, capsys, flag, message):
        out = tmp_path / "run"
        assert run_cli("train", "--channels", "8", "--wavelengths", "8", "--steps", "1",
                       "--batch", "1", "--patch", "16", flag, "0", "--out", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_train_reproducible(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("train", "--channels", "8", "--wavelengths", "8", "--steps", "2",
                           "--batch", "1", "--patch", "16", "--seed", "5", "--out", str(out)) == 0
            outs.append(read_csv(out / "history.csv"))
        assert outs[0] == outs[1]

    def test_eval_perfect_prediction_hits_caps(self, tmp_path):
        pred = tmp_path / "pred.hst"
        target = tmp_path / "target.hst"
        cube = np.random.default_rng(0).random((2, 4, 24, 24)).astype(np.float32)
        write_hst(pred, cube)
        write_hst(target, cube)
        out = tmp_path / "eval"
        assert run_cli("eval", "--pred", str(pred), "--target", str(target),
                       "--out", str(out)) == 0
        rows = read_csv(out / "metrics.csv")
        assert rows[0] == ["scene", "psnr_db", "ssim"]
        for row in rows[1:]:
            assert float(row[1]) == 100.0
            assert float(row[2]) == pytest.approx(1.0)

    def test_eval_with_network(self, tmp_path):
        out = tmp_path / "eval"
        rc = run_cli("eval", "--channels", "8", "--wavelengths", "8", "--synth-scenes", "2",
                     "--height", "24", "--width", "24", "--out", str(out))
        assert rc == 0
        rows = read_csv(out / "metrics.csv")
        assert [r[0] for r in rows[1:]] == ["scene0", "scene1", "average"]

    @pytest.mark.parametrize("given", ["--pred", "--target"])
    def test_eval_half_given_pair_fails(self, tmp_path, capsys, given):
        path = tmp_path / "cube.hst"
        write_hst(path, np.zeros((1, 4, 8, 8), np.float32))
        out = tmp_path / "eval"
        assert run_cli("eval", given, str(path), "--out", str(out)) == 1
        assert "--pred and --target" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_pred,n_target", [(2, 3), (3, 2)])
    def test_eval_scene_count_mismatch_fails(self, tmp_path, capsys, n_pred, n_target):
        rng = np.random.default_rng(1)
        paths = []
        for name, n in (("pred", n_pred), ("target", n_target)):
            paths.append(tmp_path / f"{name}.hst")
            write_hst(paths[-1], rng.random((n, 4, 8, 8)).astype(np.float32))
        out = tmp_path / "eval"
        assert run_cli("eval", "--pred", str(paths[0]), "--target", str(paths[1]),
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert f"--pred shape ({n_pred}, 4, 8, 8) != --target shape ({n_target}, 4, 8, 8)" in err
        assert not (out / "metrics.csv").exists()

    def test_eval_without_scenes_fails(self, tmp_path, capsys):
        out = tmp_path / "eval"
        assert run_cli("eval", "--channels", "8", "--wavelengths", "8", "--synth-scenes", "0",
                       "--height", "24", "--width", "24", "--out", str(out)) == 1
        assert "--synth-scenes" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()


# Every command that writes files: its argv, the entries it writes under
# --out in the order the manifest lists them, and the manifest's key=value
# lines for the parsed arguments. The lines are pinned byte for byte, since
# they are what reproduces a run.
WRITERS = {
    "simulate": (
        "simulate --synth --height 16 --width 16 --wavelengths 4 --out o",
        "measurement.hst shifted_input.hst shifted_mask.hst scene.hst mask.hst",
        "height=16 mask=None noise=False noise_bit_depth=11 out=o scene=None seed=0 step=2 "
        "synth=True wavelengths=4 width=16",
    ),
    "train": (
        "train --channels 8 --wavelengths 8 --steps 2 --batch 1 --patch 16 --out o",
        "history.csv checkpoint",
        "batch=1 binarize=all channels=8 log_every=0 lr_max=0.0004 lr_min=1e-06 "
        "module_style=binarized no_sr=False noise=False out=o patch=16 scene_size=None "
        "scenes=4 seed=0 ste=tanh step=2 steps=2 wavelengths=8",
    ),
    "eval": (
        "eval --channels 8 --wavelengths 8 --synth-scenes 1 --height 24 --width 24 --out o",
        "metrics.csv",
        "binarize=all channels=8 checkpoint=None height=24 module_style=binarized no_sr=False "
        "out=o pred=None seed=0 ste=tanh step=2 synth_scenes=1 target=None wavelengths=8 "
        "width=24",
    ),
    "eval-pair": (
        "eval --pred cube.hst --target cube.hst --out o",
        "metrics.csv",
        "binarize=all channels=28 checkpoint=None height=64 module_style=binarized "
        "no_sr=False out=o pred=cube.hst seed=0 ste=tanh step=2 synth_scenes=2 "
        "target=cube.hst wavelengths=28 width=64",
    ),
    "count": (
        "count --channels 8 --wavelengths 8 --height 32 --width 32 --out o",
        "accounting.csv",
        "binarize=all channels=8 height=32 module_style=binarized no_sr=False out=o ste=tanh "
        "wavelengths=8 width=32",
    ),
    "ste-analyze": (
        "ste-analyze --points 5 --out o",
        "ste_curves.csv ste_areas.csv",
        "alpha=1.0 half_width=3.0 out=o points=5 ste=all",
    ),
    "pack-bench": (
        "pack-bench --shape 1,4,2,2 --out o",
        "pack_bench.csv",
        "out=o seed=0 shape=1,4,2,2",
    ),
}


class TestManifest:
    def test_records_the_parsed_argv(self, tmp_path):
        # Not the process's argv, which under pytest holds pytest's own.
        argv = ["count", "--channels", "8", "--wavelengths", "8", "--height", "32",
                "--width", "32", "--out", str(tmp_path / "a b")]
        assert main(argv) == 0
        lines = (tmp_path / "a b" / "manifest.txt").read_text().splitlines()
        assert f"argv={shlex.join(argv)}" in lines

    @pytest.mark.parametrize("case", list(WRITERS))
    def test_lists_what_the_command_wrote(self, tmp_path, monkeypatch, case):
        argv, names, keys = (text.split() for text in WRITERS[case])
        monkeypatch.chdir(tmp_path)
        write_hst("cube.hst", np.zeros((1, 2, 12, 12), np.float32))
        assert main(argv) == 0
        assert sorted(os.listdir("o")) == sorted(names + ["manifest.txt"])
        lines = (tmp_path / "o" / "manifest.txt").read_text().splitlines()
        head = [f"command={argv[0]}", f"version={__version__}", f"argv={shlex.join(argv)}"]
        assert lines == head + keys + [f"output=o/{name}" for name in names]

    @pytest.mark.parametrize("command", ["count", "pack-bench"])
    def test_no_out_creates_nothing(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        argv = WRITERS[command][0].split()
        assert main(argv[: argv.index("--out")]) == 0
        assert os.listdir(tmp_path) == []

    def test_failing_command_leaves_no_manifest(self, tmp_path, monkeypatch, capsys):
        # history.csv is written before the checkpoint fails.
        def fail(net, path):
            raise OSError(f"cannot write {path}")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "save_checkpoint", fail)
        assert main(WRITERS["train"][0].split()) == 1
        assert "error: cannot write o/checkpoint" in capsys.readouterr().err
        assert os.listdir("o") == ["history.csv"]

    def test_one_place_writes_outputs(self):
        # write_manifest runs only in main, --out is created only in
        # _out_path, and one row writer feeds both files and stdout.
        tree = ast.parse(inspect.getsource(cli))
        callers = {}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call):
                        callers.setdefault(ast.unparse(node.func), set()).add(fn.name)
        assert callers["write_manifest"] == {"main"}
        assert callers["os.makedirs"] == {"_out_path"}
        assert callers["csv.writer"] == {"_write_rows"}


class TestSettings:
    def test_defaults_are_those_of_the_configs(self):
        args = build_parser().parse_args(["train", "--out", "o"])
        for f in dataclasses.fields(TrainConfig):
            got, want = getattr(args, f.name), getattr(TrainConfig(), f.name)
            assert (got, type(got)) == (want, type(want)), f.name
        assert cli.network_config_from_args(args) == NetworkConfig()

    @pytest.mark.parametrize("spec, want", [
        ("all", (True, True, True)),
        ("none", (False, False, False)),
        (" Encoder, decoder", (True, False, True)),
        ("bottleneck", (False, True, False)),
    ])
    def test_binarize_names_the_parts(self, spec, want):
        args = build_parser().parse_args(["count", "--binarize", spec])
        cfg = cli.network_config_from_args(args)
        assert (cfg.binarize_encoder, cfg.binarize_bottleneck, cfg.binarize_decoder) == want

    @pytest.mark.parametrize("spec, name", [("encoder,foo", "'foo'"), ("encoder,", "''")])
    def test_binarize_unknown_part_fails(self, capsys, spec, name):
        assert run_cli("count", "--binarize", spec) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --binarize expects parts from encoder,bottleneck,decoder"
                                f" or all/none, got {name}\n")


class TestConfigFile:
    def test_key_value_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nheight=64\nwidth=64\nchannels=8\nwavelengths=8\n")
        assert run_cli("count", f"@{cfg}", "--width", "32") == 0
        first = capsys.readouterr().out
        assert run_cli("count", "--height", "64", "--width", "32",
                       "--channels", "8", "--wavelengths", "8") == 0
        assert first == capsys.readouterr().out


    def test_flag_lines_split_as_on_the_command_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text('--steps 3\n--batch 1 --patch 16\n--out "a b"\nseed=4\nlr_max=1e-3\n')
        args = build_parser().parse_args(["train", f"@{cfg}", "--batch", "2"])
        assert (args.steps, args.batch, args.patch, args.out, args.seed) == (3, 2, 16, "a b", 4)
        # A key is spelled as in the manifest (lr_max=0.0004) or as the flag.
        assert args.lr_max == 1e-3


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bisrnet.cli", "count", "--channels", "8",
             "--wavelengths", "8", "--height", "32", "--width", "32"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("part,")
