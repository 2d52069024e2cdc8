"""Command line front end for the pipeline.

Subcommands cover the full path from raw graphs to evaluation artifacts:
``types`` and ``featurize`` dump type assignments and feature tables,
``gram`` writes kernel matrices, ``simulate`` generates the player dataset,
``xval`` runs repeated k-fold cross-validation, ``compare`` applies the
rank-sum test to two CV reports, and ``explain`` resolves feature names
back to type definitions and graph instances, inferring types as deep as
the names say.  Flags must be spelled in full: a prefix is a usage error.
Handlers leave input kinds, bad-JSON errors, defaults of flags left out and
label-mode letters to the library.

Outputs are staged to temporary files and renamed into place after the
command succeeds, so interrupted runs do not leave partial artifacts.
Exit codes: 0 success, 2 usage error, 3 data error (a refused overflow
included), 4 internal error.
Warnings go to stderr as one ``warning: <message>`` line each.

A run imports only what its subcommand uses: the baseline kernels, the
cross-validation harness and the simulator are imported by the handlers
that call them.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
import time
import warnings
from dataclasses import fields
from pathlib import Path
from typing import TYPE_CHECKING

# OpenBLAS starts a worker thread per core when numpy loads, which every
# short CLI run pays for, and no provkit path gains enough from a second one:
# the BLAS calls are the exact float64 Gram product, 0.02 s on one thread of
# a 2-core host for 1200 graphs x 818 columns, and the small per-fold gemv of
# the SVM decision values.  A value the user has set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .kernel import (
    LABEL_MODES,
    GramMatrix,
    build_universe,
    distance_report,
    featurize,
    features_to_csv,
    gram,
    gram_to_csv,
    parse_feature_name,
    retrieve_instances,
)
from .model import DataFormatError, GraphFamily, read_json
from .storage import dataset_texts, load_dataset
from .typeinf import PType, TypeAssignment, dump_types, infer_types

if TYPE_CHECKING:
    from .mlpipe import CvReport

EXIT_OK = 0
EXIT_DATA = 3
EXIT_INTERNAL = 4

#: The deepest type depth a flag, method id or feature name may ask for.
_MAX_H = 5
_METHOD_RE = re.compile(rf"([A-Za-z])([0-{_MAX_H}])")
#: Characters encoded per write when staging an artifact (1 MiB).
_WRITE_CHARS = 1 << 20


class _ArtifactSink:
    """Collects staged output files; commit renames them into place."""

    def __init__(self) -> None:
        self._staged: list[tuple[Path, Path]] = []

    def stage_text(self, final: Path, text: str) -> None:
        final = Path(final)
        final.parent.mkdir(parents=True, exist_ok=True)
        fd, name = tempfile.mkstemp(
            dir=final.parent, prefix=f".{final.name}.", suffix=".part"
        )
        # Registered before writing, so a failed write is discarded too.
        self._staged.append((Path(name), final))
        with os.fdopen(fd, "wb") as fh:
            # Encoding slice by slice never holds the whole text encoded.
            for i in range(0, len(text), _WRITE_CHARS):
                fh.write(text[i : i + _WRITE_CHARS].encode("utf-8"))

    def commit(self) -> list[Path]:
        done = []
        for tmp, final in self._staged:
            os.replace(tmp, final)
            done.append(final)
        self._staged.clear()
        return done

    def discard(self) -> None:
        for tmp, _ in self._staged:
            try:
                tmp.unlink()
            except OSError:
                pass
        self._staged.clear()


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The flags among ``names`` that were given; the library defaults the rest."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _build_gram(family: GraphFamily, args: argparse.Namespace) -> tuple[GramMatrix, float]:
    """The Gram matrix that ``args`` asks for, and the seconds it took."""
    t0 = time.perf_counter()
    if args.kernel == "pk":
        assign = infer_types(family, args.h, args.label_mode)
        fm = featurize(assign, build_universe(assign))
        gm = gram(fm, args.h, normalize=args.normalize)
    else:
        from . import baselines

        if args.kernel == "vh":
            gm = baselines.vh_gram(family, args.label_mode, normalize=args.normalize)
        elif args.kernel == "eh":
            gm = baselines.eh_gram(family, normalize=args.normalize)
        else:
            gm = baselines.wl_gram(family, args.h, args.label_mode, normalize=args.normalize)
    return gm, time.perf_counter() - t0


def _emit(args: argparse.Namespace, sink: _ArtifactSink, text: str) -> None:
    if args.out is not None:
        sink.stage_text(args.out, text)
    else:
        sys.stdout.write(text)


def _json_text(blob: dict) -> str:
    return json.dumps(blob, sort_keys=True, indent=2) + "\n"


def cmd_types(args: argparse.Namespace, sink: _ArtifactSink) -> None:
    ds = load_dataset(args.data)
    assign = infer_types(ds.family, args.h, args.label_mode)
    _emit(args, sink, dump_types(assign))


def cmd_featurize(args: argparse.Namespace, sink: _ArtifactSink) -> None:
    ds = load_dataset(args.data)
    assign = infer_types(ds.family, args.h, args.label_mode)
    fm = featurize(assign, build_universe(assign))
    csv_text, sidecar = features_to_csv(fm)
    sink.stage_text(args.out, csv_text)
    sink.stage_text(args.out.with_suffix(".names.json"), _json_text(sidecar))


def cmd_gram(args: argparse.Namespace, sink: _ArtifactSink) -> None:
    ds = load_dataset(args.data)
    gm, elapsed = _build_gram(ds.family, args)
    sink.stage_text(args.out, gram_to_csv(gm))
    timing = {
        "featurize_seconds": elapsed,
        "kernel": args.kernel,
        "h": args.h,
        "labels": args.label_mode,
        "normalized": args.normalize,
        "graphs": len(ds.family),
    }
    sink.stage_text(args.out.with_suffix(".timing.json"), _json_text(timing))


def cmd_simulate(args: argparse.Namespace, sink: _ArtifactSink) -> None:
    from .pgsim import generate_dataset

    ds = generate_dataset(args.sim)
    for name, text in dataset_texts(ds).items():
        sink.stage_text(Path(args.out) / name, text)


def cmd_xval(args: argparse.Namespace, sink: _ArtifactSink) -> None:
    from .mlpipe import balance_undersample, repeated_kfold

    ds = load_dataset(args.data)
    if len(set(ds.class_labels.values())) < 2:
        raise DataFormatError("cross-validation needs a dataset with at least two class labels")
    if args.balance:
        ds = balance_undersample(ds, **_given(args, "seed"))
    gm, elapsed = _build_gram(ds.family, args)
    # --C is read relative to the largest self-kernel, as LIBSVM's scaling
    # advice has it: on a raw count Gram an absolute C = 1 is nearly
    # hard-margin.  A normalized Gram's diagonal is exactly 1.0 already.
    top = np.diagonal(gm.values).max()
    values = gm.values / top if top > 0 else gm.values
    labels = np.array(ds.labels_in_family_order())
    report = repeated_kfold(values, labels, **_given(args, "k", "repeats", "C", "seed"))
    _emit(args, sink, _json_text({**report.to_jsonable(), "featurize_seconds": elapsed}))


def _read_report(path: Path) -> CvReport:
    from .mlpipe import CvReport

    blob = read_json(path)
    try:
        return CvReport.from_jsonable(blob)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def cmd_compare(args: argparse.Namespace, sink: _ArtifactSink) -> None:
    from .mlpipe import compare_reports

    a = _read_report(args.report_a)
    b = _read_report(args.report_b)
    name_a = args.name_a or args.report_a.stem
    name_b = args.name_b or args.report_b.stem
    result = compare_reports(a, b, name_a, name_b, **_given(args, "alpha"))
    _emit(args, sink, _json_text(result))


def cmd_explain(args: argparse.Namespace, sink: _ArtifactSink) -> None:
    ds = load_dataset(args.data)
    assigns: dict[str, TypeAssignment] = {}

    def lookup(name: str) -> tuple[TypeAssignment, PType]:
        """The assignment of ``name``'s label mode, inferred once, and its type."""
        mode, _, _ = parse_feature_name(name)
        if mode not in assigns:
            assigns[mode] = infer_types(ds.family, args.h, mode)
        return assigns[mode], build_universe(assigns[mode]).feature_lookup(name)

    assign, t = lookup(args.feature)
    if args.distance_to:
        _emit(args, sink, _json_text(distance_report(t, lookup(args.distance_to)[1])))
        return
    hits = retrieve_instances(assign, t)
    blob = {
        "feature": args.feature,
        "type": t.to_jsonable(),
        "instances": [list(hit) for hit in hits],
    }
    _emit(args, sink, _json_text(blob))


_HANDLERS = {
    "types": cmd_types,
    "featurize": cmd_featurize,
    "gram": cmd_gram,
    "simulate": cmd_simulate,
    "xval": cmd_xval,
    "compare": cmd_compare,
    "explain": cmd_explain,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="provkit",
        description="Provenance graph kernels: featurize, classify, explain.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, **kw) -> argparse.ArgumentParser:
        # Flags are spelled in full: a unique prefix is an unrecognized argument.
        return sub.add_parser(name, allow_abbrev=False, **kw)

    def add_data(p):
        p.add_argument(
            "--data",
            required=True,
            type=Path,
            help="dataset directory, manifest/graphs file, or a PROV-JSON document",
        )

    def add_method(p):
        p.add_argument("--labels", choices=("generic", "app"))
        p.add_argument("--h", type=int, choices=range(_MAX_H + 1), help=f"type depth, 0..{_MAX_H}")
        p.add_argument(
            "--method",
            metavar="ID",
            help=f"shorthand G0..G{_MAX_H} / A0..A{_MAX_H} for --labels plus --h",
        )

    def add_threads(p):
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            metavar="N",
            help="accepted for compatibility; has no effect",
        )

    def add_kernel(p):
        p.add_argument("--kernel", choices=("pk", "vh", "eh", "wl"), default="pk")
        p.add_argument(
            "--normalize",
            action="store_true",
            help="cosine-normalize the Gram matrix",
        )

    p = command("types", help="dump the per-node type assignment")
    add_data(p)
    add_method(p)
    add_threads(p)
    p.add_argument("--out", type=Path, help="output file (default: stdout)")

    p = command("featurize", help="write the feature CSV and name sidecar")
    add_data(p)
    add_method(p)
    add_threads(p)
    p.add_argument("--out", type=Path, required=True, help="feature CSV path")

    p = command("gram", help="write a kernel Gram matrix CSV")
    add_data(p)
    add_method(p)
    add_kernel(p)
    add_threads(p)
    p.add_argument("--out", type=Path, required=True, help="Gram CSV path")

    # Flags store into SimParams fields and are left out when not given, so
    # SimParams holds the only defaults and the only check of --mode.
    p = command(
        "simulate",
        help="generate a player-simulation dataset",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--mode", required=True, help="game mode, one of provkit.MODES")
    p.add_argument("--sims", type=int, dest="n_sims", help="number of runs")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--players", type=int, dest="n_players")
    p.add_argument("--grid", type=int, help="square world size")
    p.add_argument("--pokemons", type=int, dest="n_pokemons")
    p.add_argument("--pokestops", type=int, dest="n_pokestops")
    p.add_argument("--ticks", type=int, dest="max_ticks")
    p.add_argument("--balls", type=int, dest="initial_balls")
    p.add_argument("--storage", type=int, dest="max_storage")

    p = command("xval", help="repeated stratified k-fold cross-validation")
    add_data(p)
    add_method(p)
    add_kernel(p)
    add_threads(p)
    # Left out when not given: repeated_kfold and balance_undersample hold the defaults.
    p.add_argument("--C", type=float, default=argparse.SUPPRESS)
    p.add_argument("--k", type=int, default=argparse.SUPPRESS)
    p.add_argument("--repeats", type=int, default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument(
        "--balance",
        action="store_true",
        help="undersample majority classes before validation",
    )
    p.add_argument("--out", type=Path, help="report JSON path (default: stdout)")

    p = command("compare", help="rank-sum test between two CV reports")
    p.add_argument("report_a", type=Path)
    p.add_argument("report_b", type=Path)
    p.add_argument("--name-a", help="method name for the first report")
    p.add_argument("--name-b", help="method name for the second report")
    p.add_argument("--alpha", type=float, default=argparse.SUPPRESS)
    p.add_argument("--out", type=Path, help="verdict JSON path (default: stdout)")

    p = command("explain", help="resolve a feature name to its type and instances")
    add_data(p)
    add_threads(p)
    p.add_argument("--feature", required=True, metavar="NAME", help="e.g. FA2_0")
    p.add_argument(
        "--distance-to",
        metavar="NAME",
        help="emit the type distance to this feature instead of instances",
    )
    p.add_argument("--out", type=Path, help="output file (default: stdout)")

    return parser


def _resolve_method(parser, args) -> tuple[str, int]:
    if args.method:
        if args.labels is not None or args.h is not None:
            parser.error("--method replaces --labels/--h; give one or the other")
        m = _METHOD_RE.fullmatch(args.method)
        if not m or m.group(1).upper() not in LABEL_MODES:
            parser.error(f"unrecognized method id {args.method!r} "
                         f"(expected G0..G{_MAX_H} or A0..A{_MAX_H})")
        return LABEL_MODES[m.group(1).upper()], int(m.group(2))
    # --labels app|generic goes by its initial, as a method id does.
    return LABEL_MODES[(args.labels or "app")[0].upper()], 3 if args.h is None else args.h


def _resolve(parser, args) -> None:
    """Fill in the settings that depend on more than one flag."""
    if getattr(args, "threads", 1) < 1:
        parser.error("threads must be >= 1")
    try:
        if args.command == "simulate":
            from .pgsim import SimParams

            names = {f.name for f in fields(SimParams)}
            args.sim = SimParams(**{k: v for k, v in vars(args).items() if k in names})
        elif args.command == "explain":
            # A depth-d type is the same at any deeper inference, so the
            # feature's own depth is how deep to infer.
            args.h = parse_feature_name(args.feature)[1]
            if args.h > _MAX_H:
                parser.error(f"feature depth {args.h} is outside 0..{_MAX_H}")
            if args.distance_to and (d := parse_feature_name(args.distance_to)[1]) != args.h:
                parser.error(f"--distance-to needs a feature of depth {args.h}, not {d}")
        elif args.command != "compare":
            args.label_mode, args.h = _resolve_method(parser, args)
    except ValueError as exc:
        parser.error(str(exc))


def _run(args: argparse.Namespace) -> int:
    sink = _ArtifactSink()
    try:
        _HANDLERS[args.command](args, sink)
        written = sink.commit()
    except (OSError, OverflowError, ValueError) as exc:
        sink.discard()
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        sink.discard()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    for path in written:
        print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    # The message names what it is about; a source location in provkit
    # says nothing about the input or the command line.
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _resolve(parser, args)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        return _run(args)


if __name__ == "__main__":
    sys.exit(main())
