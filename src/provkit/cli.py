"""Command line front end for the pipeline.

Subcommands cover the full path from raw graphs to evaluation artifacts:
``types`` and ``featurize`` dump type assignments and feature tables,
``gram`` writes kernel matrices, ``simulate`` generates the player dataset,
``xval`` runs repeated k-fold cross-validation, ``compare`` applies the
rank-sum test to two CV reports, and ``explain`` resolves feature names
back to type definitions and graph instances.

Outputs are staged to temporary files and renamed into place after the
command succeeds, so interrupted runs do not leave partial artifacts.
Exit codes: 0 success, 2 usage error, 3 data error, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import eh_gram, vh_gram, wl_gram
from .kernel import (
    GramMatrix,
    TypeUniverse,
    build_universe,
    distance_report,
    featurize,
    features_to_csv,
    gram,
    gram_to_csv,
    parse_feature_name,
    retrieve_instances,
)
from .mlpipe import CvReport, balance_undersample, compare_reports, repeated_kfold
from .model import Dataset, GraphFamily
from .pgsim import MODES, SimParams, generate_dataset
from .provjson import DataFormatError, load_provjson
from .storage import (
    FORMAT_TAG,
    GRAPHS_NAME,
    MANIFEST_NAME,
    load_internal,
    save_internal,
)
from .typeinf import TypeAssignment, dump_types, infer_types

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

_LABEL_CANON = {"app": "application", "generic": "generic"}
_METHOD_RE = re.compile(r"([AGag])([0-5])")


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved command invocation."""

    command: str
    data: Path | None = None
    out: Path | None = None
    h: int = 3
    label_mode: str = "application"
    kernel: str = "pk"
    normalize: bool = False
    seed: int = 0
    C: float = 1.0
    k: int = 10
    repeats: int = 10
    balance: bool = False
    feature: str | None = None
    distance_to: str | None = None
    report_a: Path | None = None
    report_b: Path | None = None
    name_a: str | None = None
    name_b: str | None = None
    alpha: float = 0.05
    sim: SimParams | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.h <= 5:
            raise ValueError(f"h must be in 0..5, got {self.h}")
        if self.label_mode not in ("generic", "application"):
            raise ValueError(f"unknown label mode {self.label_mode!r}")


class _ArtifactSink:
    """Collects staged output files; commit renames them into place."""

    def __init__(self) -> None:
        self._staged: list[tuple[Path, Path]] = []

    def _tmp_for(self, final: Path) -> Path:
        final.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=final.parent, prefix=f".{final.name}.", suffix=".part"
        )
        os.close(fd)
        return Path(tmp)

    def stage_text(self, final: Path, text: str) -> None:
        final = Path(final)
        tmp = self._tmp_for(final)
        tmp.write_text(text, encoding="utf-8")
        self._staged.append((tmp, final))

    def stage_file(self, final: Path, source: Path) -> None:
        final = Path(final)
        tmp = self._tmp_for(final)
        shutil.copyfile(source, tmp)
        self._staged.append((tmp, final))

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


def _load_dataset(path: Path, need_labels: bool = False) -> Dataset:
    p = Path(path)
    if not p.exists():
        raise DataFormatError(f"no such input: {p}")
    if p.is_dir() or p.suffix == ".jsonl" or p.name == MANIFEST_NAME:
        ds = load_internal(p)
    else:
        try:
            doc = json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{p}: not valid JSON: {exc}") from exc
        if isinstance(doc, dict) and doc.get("format") == FORMAT_TAG:
            ds = load_internal(p)
        else:
            g = load_provjson(doc, "application", graph_id=p.stem)
            ds = Dataset(
                GraphFamily((g,)), {g.graph_id: "unlabeled"}, {"source": str(p)}
            )
    if need_labels and len(set(ds.class_labels.values())) < 2:
        raise DataFormatError(
            "cross-validation needs a dataset with at least two class labels"
        )
    return ds


def _build_gram(family: GraphFamily, cfg: RunConfig) -> GramMatrix:
    if cfg.kernel == "pk":
        assign = infer_types(family, cfg.h, cfg.label_mode)
        fm = featurize(assign, build_universe(assign))
        return gram(fm, cfg.h, normalize=cfg.normalize)
    if cfg.kernel == "vh":
        return vh_gram(family, cfg.label_mode, normalize=cfg.normalize)
    if cfg.kernel == "eh":
        return eh_gram(family, normalize=cfg.normalize)
    if cfg.kernel == "wl":
        return wl_gram(family, cfg.h, cfg.label_mode, normalize=cfg.normalize)
    raise ValueError(f"unknown kernel {cfg.kernel!r}")


def _emit(cfg: RunConfig, sink: _ArtifactSink, text: str) -> None:
    if cfg.out is not None:
        sink.stage_text(cfg.out, text)
    else:
        sys.stdout.write(text)


def _json_text(blob: dict) -> str:
    return json.dumps(blob, sort_keys=True, indent=2) + "\n"


def cmd_types(cfg: RunConfig, sink: _ArtifactSink) -> None:
    ds = _load_dataset(cfg.data)
    assign = infer_types(ds.family, cfg.h, cfg.label_mode)
    _emit(cfg, sink, dump_types(assign))


def cmd_featurize(cfg: RunConfig, sink: _ArtifactSink) -> None:
    ds = _load_dataset(cfg.data)
    assign = infer_types(ds.family, cfg.h, cfg.label_mode)
    fm = featurize(assign, build_universe(assign))
    csv_text, sidecar = features_to_csv(fm)
    sink.stage_text(cfg.out, csv_text)
    sink.stage_text(cfg.out.with_suffix(".names.json"), _json_text(sidecar))


def cmd_gram(cfg: RunConfig, sink: _ArtifactSink) -> None:
    ds = _load_dataset(cfg.data)
    t0 = time.perf_counter()
    gm = _build_gram(ds.family, cfg)
    elapsed = time.perf_counter() - t0
    sink.stage_text(cfg.out, gram_to_csv(gm))
    timing = {
        "featurize_seconds": elapsed,
        "kernel": cfg.kernel,
        "h": cfg.h,
        "labels": cfg.label_mode,
        "normalized": cfg.normalize,
        "graphs": len(ds.family),
    }
    sink.stage_text(cfg.out.with_suffix(".timing.json"), _json_text(timing))


def cmd_simulate(cfg: RunConfig, sink: _ArtifactSink) -> None:
    ds = generate_dataset(cfg.sim)
    with tempfile.TemporaryDirectory() as td:
        save_internal(ds, td)
        for name in (GRAPHS_NAME, MANIFEST_NAME):
            sink.stage_file(Path(cfg.out) / name, Path(td) / name)


def cmd_xval(cfg: RunConfig, sink: _ArtifactSink) -> None:
    ds = _load_dataset(cfg.data, need_labels=True)
    if cfg.balance:
        ds = balance_undersample(ds, cfg.seed)
    t0 = time.perf_counter()
    gm = _build_gram(ds.family, cfg)
    elapsed = time.perf_counter() - t0
    labels = np.array(ds.labels_in_family_order())
    report = repeated_kfold(
        gm.values,
        labels,
        k=cfg.k,
        repeats=cfg.repeats,
        C=cfg.C,
        seed=cfg.seed,
        featurize_seconds=elapsed,
    )
    _emit(cfg, sink, _json_text(report.to_jsonable()))


def _read_report(path: Path) -> CvReport:
    p = Path(path)
    if not p.exists():
        raise DataFormatError(f"no such report: {p}")
    try:
        blob = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{p}: not valid JSON: {exc}") from exc
    try:
        return CvReport.from_jsonable(blob)
    except ValueError as exc:
        raise DataFormatError(f"{p}: {exc}") from exc


def cmd_compare(cfg: RunConfig, sink: _ArtifactSink) -> None:
    a = _read_report(cfg.report_a)
    b = _read_report(cfg.report_b)
    name_a = cfg.name_a or cfg.report_a.stem
    name_b = cfg.name_b or cfg.report_b.stem
    result = compare_reports(a, b, name_a, name_b, alpha=cfg.alpha)
    _emit(cfg, sink, _json_text(result))


def cmd_explain(cfg: RunConfig, sink: _ArtifactSink) -> None:
    ds = _load_dataset(cfg.data)
    wanted = [cfg.feature] + ([cfg.distance_to] if cfg.distance_to else [])
    assigns: dict[str, TypeAssignment] = {}
    universes: dict[str, TypeUniverse] = {}
    types = []
    for name in wanted:
        mode, _, _ = parse_feature_name(name)
        if mode not in universes:
            assigns[mode] = infer_types(ds.family, cfg.h, mode)
            universes[mode] = build_universe(assigns[mode])
        types.append(universes[mode].feature_lookup(name))
    if cfg.distance_to:
        _emit(cfg, sink, _json_text(distance_report(types[0], types[1])))
        return
    mode, _, _ = parse_feature_name(cfg.feature)
    hits = retrieve_instances(assigns[mode], types[0])
    blob = {
        "feature": cfg.feature,
        "type": types[0].to_jsonable(),
        "instances": [list(hit) for hit in hits],
    }
    _emit(cfg, sink, _json_text(blob))


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
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data(p):
        p.add_argument(
            "--data",
            required=True,
            type=Path,
            help="dataset directory, manifest/graphs file, or a PROV-JSON document",
        )

    def add_method(p):
        p.add_argument("--labels", choices=("generic", "app"))
        p.add_argument("--h", type=int, choices=range(6), help="type depth, 0..5")
        p.add_argument(
            "--method",
            metavar="ID",
            help="shorthand G0..G5 / A0..A5 for --labels plus --h",
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

    p = sub.add_parser("types", help="dump the per-node type assignment")
    add_data(p)
    add_method(p)
    add_threads(p)
    p.add_argument("--out", type=Path, help="output file (default: stdout)")

    p = sub.add_parser("featurize", help="write the feature CSV and name sidecar")
    add_data(p)
    add_method(p)
    add_threads(p)
    p.add_argument("--out", type=Path, required=True, help="feature CSV path")

    p = sub.add_parser("gram", help="write a kernel Gram matrix CSV")
    add_data(p)
    add_method(p)
    add_kernel(p)
    add_threads(p)
    p.add_argument("--out", type=Path, required=True, help="Gram CSV path")

    base = SimParams()
    p = sub.add_parser("simulate", help="generate a player-simulation dataset")
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--sims", type=int, default=base.n_sims, help="number of runs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--players", type=int, default=base.n_players)
    p.add_argument("--grid", type=int, default=base.grid[0], help="square world size")
    p.add_argument("--pokemons", type=int, default=base.n_pokemons)
    p.add_argument("--pokestops", type=int, default=base.n_pokestops)
    p.add_argument("--ticks", type=int, default=base.max_ticks)
    p.add_argument("--balls", type=int, default=base.initial_balls)
    p.add_argument("--storage", type=int, default=base.max_storage)

    p = sub.add_parser("xval", help="repeated stratified k-fold cross-validation")
    add_data(p)
    add_method(p)
    add_kernel(p)
    add_threads(p)
    p.add_argument("--C", type=float, default=1.0, dest="C")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--balance",
        action="store_true",
        help="undersample majority classes before validation",
    )
    p.add_argument("--out", type=Path, help="report JSON path (default: stdout)")

    p = sub.add_parser("compare", help="rank-sum test between two CV reports")
    p.add_argument("report_a", type=Path)
    p.add_argument("report_b", type=Path)
    p.add_argument("--name-a", help="method name for the first report")
    p.add_argument("--name-b", help="method name for the second report")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out", type=Path, help="verdict JSON path (default: stdout)")

    p = sub.add_parser(
        "explain", help="resolve a feature name to its type and instances"
    )
    add_data(p)
    add_threads(p)
    p.add_argument("--h", type=int, choices=range(6), help="type depth, 0..5")
    p.add_argument("--feature", required=True, metavar="NAME", help="e.g. FA2_0")
    p.add_argument(
        "--distance-to",
        metavar="NAME",
        help="emit the type distance to this feature instead of instances",
    )
    p.add_argument("--out", type=Path, help="output file (default: stdout)")

    return parser


def _resolve_method(parser, args) -> tuple[str, int]:
    labels = getattr(args, "labels", None)
    h = getattr(args, "h", None)
    method = getattr(args, "method", None)
    if method:
        if labels is not None or h is not None:
            parser.error("--method replaces --labels/--h; give one or the other")
        m = _METHOD_RE.fullmatch(method)
        if not m:
            parser.error(
                f"unrecognized method id {method!r} (expected G0..G5 or A0..A5)"
            )
        mode = "application" if m.group(1).upper() == "A" else "generic"
        return mode, int(m.group(2))
    mode = _LABEL_CANON[labels] if labels else "application"
    return mode, 3 if h is None else h


def config_from_args(parser, args) -> RunConfig:
    cmd = args.command
    if getattr(args, "threads", 1) < 1:
        parser.error("threads must be >= 1")
    try:
        if cmd == "simulate":
            sim = SimParams(
                mode=args.mode,
                seed=args.seed,
                n_sims=args.sims,
                n_players=args.players,
                grid=args.grid,
                n_pokemons=args.pokemons,
                n_pokestops=args.pokestops,
                initial_balls=args.balls,
                max_storage=args.storage,
                max_ticks=args.ticks,
            )
            return RunConfig(command=cmd, out=args.out, seed=args.seed, sim=sim)
        if cmd == "compare":
            return RunConfig(
                command=cmd,
                report_a=args.report_a,
                report_b=args.report_b,
                name_a=args.name_a,
                name_b=args.name_b,
                alpha=args.alpha,
                out=args.out,
            )
        if cmd == "explain":
            feature_depths = [parse_feature_name(args.feature)[1]]
            if args.distance_to:
                feature_depths.append(parse_feature_name(args.distance_to)[1])
            h = args.h if args.h is not None else max(feature_depths)
            if h < max(feature_depths):
                parser.error(
                    f"--h {h} is below the deepest requested feature "
                    f"(depth {max(feature_depths)})"
                )
            return RunConfig(
                command=cmd,
                data=args.data,
                h=h,
                feature=args.feature,
                distance_to=args.distance_to,
                out=args.out,
            )
        label_mode, h = _resolve_method(parser, args)
        common = dict(
            command=cmd,
            data=args.data,
            out=args.out,
            h=h,
            label_mode=label_mode,
        )
        if cmd == "xval":
            return RunConfig(
                kernel=args.kernel,
                normalize=args.normalize,
                seed=args.seed,
                C=args.C,
                k=args.k,
                repeats=args.repeats,
                balance=args.balance,
                **common,
            )
        if cmd == "gram":
            return RunConfig(kernel=args.kernel, normalize=args.normalize, **common)
        return RunConfig(**common)
    except ValueError as exc:
        parser.error(str(exc))


def _run(cfg: RunConfig) -> int:
    sink = _ArtifactSink()
    try:
        _HANDLERS[cfg.command](cfg, sink)
        written = sink.commit()
    except (DataFormatError, OSError, ValueError) as exc:
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = config_from_args(parser, args)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    return _run(cfg)


if __name__ == "__main__":
    sys.exit(main())
