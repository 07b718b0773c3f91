"""Command-line entry point.

Verbs: generate | train | eval | reconstruct. Exit codes: 0 success,
2 configuration error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import sys

from .dataset import generate_dataset
from .errors import ConfigError, DataError, NumericError
from .runconfig import RunConfig
from .trainer import evaluate, reconstruct, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run config; defaults to the desk preset")
    common.add_argument("--out", help="override the output directory")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, help="override the config seed")

    parser = argparse.ArgumentParser(
        prog="hqinet",
        description="Low-dose CT reconstruction: synthetic data generation, "
                    "training, evaluation, and volume reconstruction.")
    # The verbs without --seed or --strict-determinism read these defaults.
    parser.set_defaults(seed=None, strict_determinism=False)
    sub = parser.add_subparsers(dest="command", required=True)
    p_gen = sub.add_parser("generate", parents=[common, seeded],
                           help="write the synthetic train/test dataset")
    p_gen.add_argument("--force", action="store_true",
                       help="allow writing into a non-empty directory")
    p_train = sub.add_parser("train", parents=[common, seeded], help="train a model")
    p_train.add_argument("--resume", help="checkpoint to continue from")
    p_train.add_argument("--strict-determinism", action="store_true",
                         help="bit-reproducible logs (wall times written as 0)")
    p_eval = sub.add_parser("eval", parents=[common],
                            help="metric report on a dataset split")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", help="dataset directory (default: config data root)")
    p_rec = sub.add_parser("reconstruct", parents=[common],
                           help="run the model over a volume file")
    p_rec.add_argument("--checkpoint", required=True)
    p_rec.add_argument("--input", required=True, help="low-dose volume (.hqiv)")
    return parser


def _load_config(args) -> RunConfig:
    config = RunConfig.from_json(args.config) if args.config else RunConfig.desk()
    if args.seed is not None:  # through the reader, which checks the value
        config = RunConfig.from_dict(dict(config.to_dict(), seed=args.seed))
    if args.out:
        config.output_dir = args.out
    if args.strict_determinism:
        config.strict_determinism = True
    return config


def _run(args) -> int:
    config = _load_config(args)
    if args.command == "generate":
        out_dir = args.out or config.data.root
        written = generate_dataset(out_dir, config.data.synthetic, config.seed,
                                   force=args.force)
        print(f"wrote {len(written)} volume pairs under {out_dir}")
        return EXIT_OK
    if args.command == "train":
        result = train(config, resume=args.resume)
        print(f"trained {result.epochs_run} epochs ({result.steps} steps); "
              f"best validation loss {result.best_val:.6f}")
        print(f"log: {result.log_path}")
        best = (f"{result.best_path} (best)" if result.best_path
                else "no best checkpoint (no finite validation loss)")
        print(f"checkpoints: {result.last_path} (last), {best}")
        return EXIT_OK
    if args.command == "eval":
        data_dir = args.data or config.data.root
        out_dir = args.out or config.output_dir
        delta = evaluate(args.checkpoint, data_dir, out_dir)["delta"]
        with open(f"{out_dir}/report.txt") as f:
            print(f.read(), end="")
        print(f"PSNR delta: {delta['psnr_db']:+.2f} dB, MI delta: {delta['mi']:+.3f}")
        return EXIT_OK
    if args.command == "reconstruct":
        out_dir = args.out or config.output_dir
        out_path = reconstruct(args.checkpoint, args.input, out_dir)
        print(f"reconstructed volume: {out_path}")
        return EXIT_OK
    raise ConfigError(f"unknown command {args.command}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
