"""Command-line interface.

Subcommands: simulate, train, eval, count, ste-analyze, pack-bench.
A command names each file it writes through ``_out_path``, which creates
``--out`` on first use and records the path. After a command succeeds,
``main`` alone writes a plain-text manifest.txt there, if the command
recorded any path: the fully resolved configuration, sufficient to
reproduce the outputs bit for bit, then the recorded paths in order. A
failed command leaves no manifest.

The train flags mirror ``TrainConfig``'s fields (``lr_max`` is
``--lr-max``), with its types and defaults; the network flags, and
simulate's ``--wavelengths``, take their defaults, choices and part names
from ``NetworkConfig``.

Arguments can come from a config file via ``@file``. Each line is either
``key=value`` or flags split as on the command line (``--steps 3``); a
key may be spelled with ``_`` as in the manifest or with ``-`` as on the
command line. Explicit flags given after the file reference win:

    bisrnet train @desk.cfg --steps 100

Exit codes: 0 ok, 1 runtime failure, 2 usage error.
"""

import argparse
import csv
import dataclasses
import os
import shlex
import sys

import numpy as np

from . import __version__, cassi
from .binarize import STE_KINDS, approx_error_area, approx_error_area_numeric, ste_grad, ste_value
from .bitpack import pack
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ArgumentError
from .hst import read_hst, write_hst
from .network import NetworkConfig, build
from .train import TrainConfig, evaluate, psnr, ssim, synthetic_stream, train


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _write_rows(fh, header, rows):
    writer = csv.writer(fh)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        _write_rows(fh, header, rows)


def _out_path(args, name):
    """The path of ``name`` under ``--out``, which is created on first use.
    The path is recorded for the manifest."""
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    args.outputs.append(path)
    return path


def write_manifest(args):
    lines = [
        f"command={args.command}",
        f"version={__version__}",
        f"argv={shlex.join(args.argv)}",
    ]
    for key, value in sorted(vars(args).items()):
        if key in ("command", "func", "argv", "outputs"):
            continue
        lines.append(f"{key}={value}")
    lines += [f"output={out}" for out in args.outputs]
    with open(os.path.join(args.out, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


_PARTS = tuple(NetworkConfig().binarize_flags)


def network_config_from_args(args):
    spec = args.binarize.strip().lower()
    names = {"all": _PARTS, "none": ()}.get(spec, [name.strip() for name in spec.split(",")])
    for name in names:
        if name not in _PARTS:
            raise ArgumentError(
                f"--binarize expects parts from {','.join(_PARTS)} or all/none, got {name!r}"
            )
    return NetworkConfig(
        base_channels=args.channels,
        n_wavelengths=args.wavelengths,
        ste=args.ste,
        module_style=args.module_style,
        redistribution=not args.no_sr,
        **{f"binarize_{part}": part in names for part in _PARTS},
    )


def add_network_flags(p):
    p.add_argument("--channels", type=int, default=NetworkConfig.base_channels,
                   help="base channel width C")
    p.add_argument("--wavelengths", type=int, default=NetworkConfig.n_wavelengths,
                   help="number of spectral bands")
    p.add_argument("--binarize", default="all",
                   help=f"comma list of parts ({','.join(_PARTS)}), or all / none")
    p.add_argument("--ste", choices=NetworkConfig.STES, default=NetworkConfig.ste)
    p.add_argument("--no-sr", action="store_true",
                   help="disable the spectral redistribution (gain/shift) stage")
    p.add_argument("--module-style", choices=NetworkConfig.MODULE_STYLES,
                   default=NetworkConfig.module_style)


def cmd_simulate(args):
    if args.synth:
        cube = cassi.synth_scene(args.seed, args.height, args.width, args.wavelengths)
        mask = cassi.random_mask(args.seed + 1, args.height, args.width)
    else:
        if not args.scene or not args.mask:
            raise ArgumentError("simulate needs --scene and --mask files, or --synth")
        cube, mask = read_hst(args.scene), read_hst(args.mask)
        if cube.shape[0] != 1:
            raise ArgumentError(f"--scene must be (1, bands, h, w), got {cube.shape}")
        if mask.shape[:2] != (1, 1):
            raise ArgumentError(f"--mask must be (1, 1, h, w), got {mask.shape}")
        cube, mask = cube[0], mask[0, 0]
    sys_ = cassi.CassiSystem(mask, step=args.step, n_bands=cube.shape[0])
    y = cassi.forward_capture(cube, sys_)
    if args.noise:
        y = cassi.add_shot_noise(y, args.noise_bit_depth, seed=args.seed)
    h_in = cassi.shift_back(y, sys_)
    m_in = cassi.shift_mask(sys_)

    for name, arr in [
        ("measurement.hst", y[None, None]),
        ("shifted_input.hst", h_in[None]),
        ("shifted_mask.hst", m_in[None]),
        ("scene.hst", cube[None]),
        ("mask.hst", mask[None, None]),
    ]:
        write_hst(_out_path(args, name), arr)
    print(f"wrote measurement {y.shape[0]}x{y.shape[1]} and shifted tensors to {args.out}")


def cmd_train(args):
    cfg = network_config_from_args(args)
    net = build(cfg, seed=args.seed)
    tcfg = TrainConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(TrainConfig)})
    batch_fn = synthetic_stream(cfg.n_wavelengths, tcfg, scene_size=args.scene_size,
                                n_scenes=args.scenes, sys_step=args.step)
    history = train(net, tcfg, batch_fn, log_every=args.log_every)

    # history.csv is written after the checkpoint, so a failed save leaves
    # no history that reads like a finished run's.
    history_path = _out_path(args, "history.csv")
    save_checkpoint(net, _out_path(args, "checkpoint"))
    write_csv(history_path, ["step", "lr", "loss"], history)
    print(f"final rmse {history[-1][2]:.6g} after {len(history)} steps; wrote {args.out}")


def cmd_eval(args):
    """Score ``--pred`` against ``--target``, or the network on synthetic
    scenes.

    Synthetic scene i of ``--seed s`` is drawn from
    ``SeedSequence(s, spawn_key=(i,))``. ``synthetic_stream`` seeds its
    training pool with plain integers, and no integer below 2**128 gives
    that stream, so eval never scores a training scene, at any size.
    """
    if bool(args.pred) != bool(args.target):
        raise ArgumentError("eval needs --pred and --target together, or neither")
    rows = []
    if args.pred:
        pred = read_hst(args.pred)
        target = read_hst(args.target)
        if pred.shape != target.shape:
            raise ArgumentError(f"--pred shape {pred.shape} != --target shape {target.shape}")
        for i in range(pred.shape[0]):
            rows.append((f"scene{i}", psnr(pred[i], target[i]), ssim(pred[i], target[i])))
    else:
        if args.synth_scenes < 1:
            raise ArgumentError(f"--synth-scenes must be at least 1, got {args.synth_scenes}")
        cfg = network_config_from_args(args)
        net = build(cfg, seed=args.seed)
        if args.checkpoint:
            load_checkpoint(net, args.checkpoint)
        scenes = [
            cassi.synth_scene(np.random.SeedSequence(args.seed, spawn_key=(i,)), args.height,
                              args.width, cfg.n_wavelengths)
            for i in range(args.synth_scenes)
        ]
        mask = cassi.random_mask(args.seed + 1000, args.height, args.width)
        sys_ = cassi.CassiSystem(mask, step=args.step, n_bands=cfg.n_wavelengths)
        rows, _ = evaluate(net, scenes, sys_)
    avg = ("average", float(np.mean([r[1] for r in rows])), float(np.mean([r[2] for r in rows])))
    write_csv(_out_path(args, "metrics.csv"), ["scene", "psnr_db", "ssim"], rows + [avg])
    for row in rows + [avg]:
        print(f"{row[0]}: psnr {row[1]:.6g} dB, ssim {row[2]:.6g}")


def cmd_count(args):
    cfg = network_config_from_args(args)
    net = build(cfg, seed=0)
    acc = net.count(args.height, args.width)
    header = ["part", "params_f", "params_b", "ops_f", "ops_b"]
    rows = acc.rows()
    _write_rows(sys.stdout, header, rows)
    if args.out:
        write_csv(_out_path(args, "accounting.csv"), header, rows)


def cmd_ste_analyze(args):
    if args.points < 1:
        raise ArgumentError(f"--points must be >= 1, got {args.points}")
    kinds = list(STE_KINDS) if args.ste == "all" else [args.ste]
    xs = np.linspace(-args.half_width, args.half_width, args.points)
    curve_rows = []
    area_rows = []
    for kind in kinds:
        vals = ste_value(xs, kind, args.alpha)
        grads = ste_grad(xs, kind, args.alpha)
        curve_rows.extend((kind, float(x), float(v), float(g)) for x, v, g in zip(xs, vals, grads))
        area_rows.append(
            (
                kind,
                args.alpha if kind == "tanh" else "",
                approx_error_area(kind, args.alpha),
                approx_error_area_numeric(kind, args.alpha),
            )
        )
    write_csv(_out_path(args, "ste_curves.csv"), ["kind", "x", "value", "grad"], curve_rows)
    write_csv(_out_path(args, "ste_areas.csv"), ["kind", "alpha", "area", "area_numeric"],
              area_rows)
    for row in area_rows:
        print(f"{row[0]}: area {row[2]:.6g} (quadrature {row[3]:.6g})")


def cmd_pack_bench(args):
    try:
        shape = tuple(int(s) for s in args.shape.split(","))
        n, c, h, w = shape
    except ValueError as exc:
        raise ArgumentError(f"--shape must be n,c,h,w, got {args.shape!r}") from exc
    if min(shape) < 1:
        raise ArgumentError(f"--shape sizes must be at least 1, got {args.shape!r}")
    rng = np.random.default_rng(args.seed)
    dense = np.where(rng.random(shape) < 0.5, -1, 1).astype(np.float32)
    bt = pack(dense)
    dense_bytes = dense.nbytes
    packed_bytes = bt.packed_bytes
    ratio = dense_bytes / packed_bytes
    print(f"shape {shape}: dense {dense_bytes} B, packed {packed_bytes} B, ratio {ratio:.6g}x")
    if args.out:
        write_csv(_out_path(args, "pack_bench.csv"),
                  ["n", "c", "h", "w", "dense_bytes", "packed_bytes", "ratio"],
                  [(n, c, h, w, dense_bytes, packed_bytes, ratio)])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bisrnet",
        description="Binarized spectral reconstruction toolkit",
        fromfile_prefix_chars="@",
    )
    parser.convert_arg_line_to_args = _config_line_to_args
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a coded snapshot capture")
    p.add_argument("--scene", help="input scene .hst (1, bands, h, w)")
    p.add_argument("--mask", help="input mask .hst (1, 1, h, w)")
    p.add_argument("--synth", action="store_true", help="generate a synthetic scene and mask")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--wavelengths", type=int, default=NetworkConfig.n_wavelengths)
    p.add_argument("--step", type=int, default=2, help="dispersion step in columns per band")
    p.add_argument("--noise", action="store_true", help="inject shot noise")
    p.add_argument("--noise-bit-depth", type=int, default=11)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train on synthetic scenes")
    add_network_flags(p)
    for f in dataclasses.fields(TrainConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.type is bool:
            p.add_argument(flag, action="store_true")
        else:
            p.add_argument(flag, type=f.type, default=f.default)
    p.add_argument("--scene-size", type=int, default=None)
    p.add_argument("--scenes", type=int, default=4, help="synthetic scene pool size")
    p.add_argument("--step", type=int, default=2)
    p.add_argument("--log-every", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score reconstructions (PSNR/SSIM)")
    add_network_flags(p)
    p.add_argument("--pred", help="prediction .hst; with --target, skips the network")
    p.add_argument("--target", help="ground-truth .hst")
    p.add_argument("--checkpoint", help="checkpoint directory to load")
    p.add_argument("--synth-scenes", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--step", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("count", help="print the Params/OPs accounting table")
    add_network_flags(p)
    p.add_argument("--height", type=int, default=256)
    p.add_argument("--width", type=int, default=256)
    p.add_argument("--out", default=None, help="also write accounting.csv here")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("ste-analyze", help="dump surrogate curves and error areas")
    p.add_argument("--ste", choices=list(STE_KINDS) + ["all"], default="all")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--half-width", type=float, default=3.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ste_analyze)

    p = sub.add_parser("pack-bench", help="report bit-packing storage reduction")
    p.add_argument("--shape", default="1,28,256,256")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pack_bench)

    return parser


def _config_line_to_args(line):
    line = line.strip()
    if not line or line.startswith("#"):
        return []
    if "=" in line and not line.startswith("-"):
        key, value = line.split("=", 1)
        return [f"--{key.strip().replace('_', '-')}={value.strip()}"]
    return shlex.split(line)


def main(argv=None):
    args = build_parser().parse_args(argv)
    # The manifest records the argv parsed here, not the process's.
    args.argv = sys.argv[1:] if argv is None else argv
    args.outputs = []
    try:
        if getattr(args, "seed", 0) < 0:
            raise ArgumentError(f"--seed must be >= 0, got {args.seed}")
        args.func(args)
        if args.outputs:
            write_manifest(args)
    except Exception as exc:  # argparse usage errors exit(2) before this
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
