"""Command-line entry point for the topology-performance experiments.

It parses arguments, dispatches each command to ``pipeline`` and maps
exceptions to exit codes; every stage, log line and summary is the
pipeline's.

Importing this module marks OpenSSL's ``_hashlib`` as absent when the
interpreter has all of CPython's built-in hash modules, so no command maps
``libcrypto`` (about 3.4 MB of peak resident memory): ``hashlib``,
``hmac`` and ``secrets`` (which ``numpy.random`` imports) fall back to the
built-in hashes. topocf hashes only with ``blake2b``, which is always the
built-in one, so no seed or digest changes. An interpreter built without
one of them (some distributions take sha512 from OpenSSL alone) keeps
OpenSSL: with ``_hashlib`` marked absent there, ``random``'s import of
sha512, and with it ``import numpy.random``, would fail. The package root
has no such side effect.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys

# no run needs OpenSSL's libcrypto: topocf hashes only with blake2b, which
# is CPython's built-in _blake2 either way. Set before anything imports
# hashlib or numpy.random (bit_generator -> secrets -> hmac -> _hashlib),
# and only where hashlib and random can fall back to every built-in hash
# (3.12 merged _sha256 and _sha512 into _sha2)
_BUILTIN_HASHES = (("_md5", "_sha1", "_sha2", "_sha3", "_blake2")
                   if sys.version_info >= (3, 12) else
                   ("_md5", "_sha1", "_sha256", "_sha512", "_sha3", "_blake2"))
if all(importlib.util.find_spec(name) for name in _BUILTIN_HASHES):
    sys.modules.setdefault("_hashlib", None)

from . import pipeline
from .config import ConfigError, describe_keys, load_config, parse_config


def build_parser():
    parser = argparse.ArgumentParser(
        prog="topocf",
        description="Topology-aware analysis of graph collaborative "
                    "filtering: sample sub-datasets, compute graph "
                    "characteristics, train recommenders, and fit the "
                    "explanatory regression.",
        epilog=describe_keys(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--out", help="override output directory")
    parser.add_argument("--jobs", type=int, help="parallel worker processes")
    parser.add_argument("--resume", action="store_true",
                        help="reuse completed cells recorded in the ledger")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "sample": "generate the sub-dataset pool and manifest",
        "characterize": "compute per-sample characteristic vectors",
        "train": "train and evaluate every (sample, model) cell",
        "explain": "fit the per-model explanatory regressions",
        "rq2": "run the alpha-sweep over mixed sample pools",
        "run-all": "full pipeline plus alpha sweep and report",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("overrides", nargs="*", metavar="key=value",
                       help="configuration overrides")
    return parser


def _load_config(args):
    overrides = list(args.overrides)
    if args.out:
        overrides.append(f"out_dir={args.out}")
    if args.jobs is not None:
        overrides.append(f"jobs={args.jobs}")
    if args.config:
        return load_config(args.config, overrides)
    return parse_config([], overrides)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args.command, _load_config(args), args.resume)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError, pipeline.InputError,
            pipeline.sampling.SamplePoolError,
            pipeline.sampling.DegenerateSampleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(command, cfg, resume):
    if command == "sample":
        _, samples, *_ = pipeline.start_run(cfg, resume)
        print(f"wrote {len(samples)} samples to "
              f"{os.path.join(cfg.out_dir, 'samples')}")
        return 0

    if command in ("characterize", "train"):
        _, samples, digests, result = pipeline.start_run(cfg, resume)
        stage = (pipeline.characterize_samples if command == "characterize"
                 else pipeline.train_samples)
        stage(cfg, samples, digests, result)
        return _finish(result)

    result, samples, vectors, rows = pipeline.run_experiment(cfg, resume)
    if command != "explain":
        pipeline.rq2_sweep(cfg, samples, vectors, rows, result)
    if command == "run-all":
        pipeline.emit_report(cfg, result)
    return _finish(result)


def _finish(result):
    if result.failures:
        print(f"{len(result.failures)} cell(s) failed:", file=sys.stderr)
        for key, error in result.failures:
            print(f"  {key}: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
