"""End-to-end checks of the command line interface."""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import provkit
from conftest import random_family
from provkit import mlpipe, svm
from provkit.cli import build_parser, main
from provkit.mlpipe import balance_undersample, compare_reports, repeated_kfold
from provkit.model import Dataset, GraphFamily, ProvGraph
from provkit.pgsim import SimParams
from provkit.provjson import ProvJsonWarning
from provkit.storage import MANIFEST_NAME, load_internal, save_internal


def run(*argv) -> int:
    return main([str(a) for a in argv])


SIM_ARGS = (
    "--mode", "targeting", "--sims", 1, "--players", 3, "--grid", 12,
    "--pokemons", 12, "--pokestops", 3, "--ticks", 40, "--seed", 3,
)


def two_class_dataset(path, n_a=8, n_b=8):
    graphs = []
    labels = {}
    for cls, tag, count in (("alpha", "A", n_a), ("beta", "B", n_b)):
        for i in range(count):
            gid = f"{tag.lower()}{i}"
            nodes = {f"n{j}": frozenset({"ent", f"x:{tag}"}) for j in range(3)}
            graphs.append(ProvGraph(gid, nodes, ()))
            labels[gid] = cls
    save_internal(Dataset(GraphFamily(tuple(graphs)), labels, {}), path)
    return path


def _child(*args: str, blas: str | None = None) -> str:
    """Stdout of ``python *args`` run on this checkout's sources, with
    OPENBLAS_NUM_THREADS set to ``blas`` (unset when None)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(provkit.__file__).parents[1])
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_cli_import_loads_no_scipy():
    code = "import sys, provkit.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    assert _child("-c", code).strip() == "[]"


#: Runs ``provkit.cli.main`` on argv, then prints the provkit modules it loaded.
_RUN_AND_LIST = (
    "import sys\n"
    "from provkit.cli import main\n"
    "rc = main(sys.argv[1:])\n"
    "print(' '.join(sorted(m for m in sys.modules if m.startswith('provkit.') or m == 'multiprocessing')))\n"
    "sys.exit(rc)\n"
)


class TestStartup:
    def test_package_import_loads_no_submodule_and_no_numpy(self):
        code = "import sys, provkit; print([m for m in sys.modules if m.startswith(('provkit.', 'numpy'))])"
        assert _child("-c", code).strip() == "[]"

    @pytest.mark.parametrize(
        "argv, absent",
        [
            (["featurize", "--data", "{ds}", "--out", "{tmp}/f.csv"], {"pgsim", "svm", "mlpipe", "baselines"}),
            (["types", "--data", "{ds}", "--out", "{tmp}/t.jsonl"], {"pgsim", "svm", "mlpipe", "baselines"}),
            (["explain", "--data", "{ds}", "--feature", "FA0_0", "--out", "{tmp}/e.json"],
             {"pgsim", "svm", "mlpipe", "baselines"}),
            (["gram", "--data", "{ds}", "--kernel", "pk", "--h", "1", "--out", "{tmp}/g.csv"],
             {"pgsim", "svm", "mlpipe", "baselines"}),
            (["compare", "{tmp}/ra.json", "{tmp}/rb.json", "--out", "{tmp}/v.json"], {"pgsim", "baselines"}),
        ],
        ids=["featurize", "types", "explain", "gram-pk", "compare"],
    )
    def test_subcommand_loads_only_what_it_runs(self, tmp_path, argv, absent):
        ds = two_class_dataset(tmp_path / "ds")
        for name in ("ra.json", "rb.json"):
            TestCompare.write_report(tmp_path / name, [0.5] * 10)
        argv = [a.format(ds=ds, tmp=tmp_path) for a in argv]
        loaded = set(_child("-c", _RUN_AND_LIST, *argv).split())
        assert "provkit.storage" in loaded  # the listing saw the run
        assert loaded.isdisjoint(f"provkit.{name}" for name in absent)
        assert "multiprocessing" not in loaded  # only the simulator starts workers

    @pytest.mark.parametrize("preset, want", [(None, "1"), ("2", "2")], ids=["unset", "preset"])
    def test_cli_import_defaults_openblas_to_one_thread(self, preset, want):
        code = "import os, provkit.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert _child("-c", code, blas=preset).strip() == want

    def test_reports_and_verdict_do_not_depend_on_openblas_threads(self, tmp_path):
        data = tmp_path / "sim"
        assert run("simulate", "--mode", "disposal", "--sims", 1, "--ticks", 30,
                   "--seed", 3, "--out", data) == 0
        cv = ["--normalize", "--k", "3", "--repeats", "2"]
        outputs = []
        for blas in ("1", "2"):
            out = tmp_path / blas
            texts = []
            for name, method in (("a3", ["--method", "A3"]), ("wl2", ["--kernel", "wl", "--h", "2"])):
                _child("-m", "provkit.cli", "xval", "--data", str(data), *method, *cv,
                       "--out", str(out / f"{name}.json"), blas=blas)
                report = json.loads((out / f"{name}.json").read_text(encoding="utf-8"))
                report.pop("featurize_seconds")
                texts.append(json.dumps(report, sort_keys=True))
            texts.append(_child("-m", "provkit.cli", "compare", str(out / "a3.json"),
                                str(out / "wl2.json"), blas=blas))
            outputs.append(texts)
        assert outputs[0] == outputs[1]


@pytest.fixture()
def sim_dir(tmp_path):
    out = tmp_path / "tiny"
    assert run("simulate", *SIM_ARGS, "--out", out) == 0
    return out


class TestSimulate:
    def test_writes_loadable_dataset(self, sim_dir):
        ds = load_internal(sim_dir)
        assert len(ds) == 3
        assert sorted(set(ds.class_labels.values())) == ["Instinct", "Mystic", "Valor"]
        assert ds.meta["mode"] == "targeting"

    def test_rerun_is_byte_identical(self, tmp_path, sim_dir):
        again = tmp_path / "again"
        assert run("simulate", *SIM_ARGS, "--out", again) == 0
        for name in ("graphs.jsonl", "manifest.json"):
            assert (again / name).read_bytes() == (sim_dir / name).read_bytes()

    def test_omitted_flags_take_simparams_defaults(self, tmp_path):
        out = tmp_path / "defaults"
        assert run("simulate", "--mode", "targeting", "--sims", 1, "--ticks", 40,
                   "--out", out) == 0
        manifest = json.loads((out / MANIFEST_NAME).read_text(encoding="utf-8"))
        want = SimParams(mode="targeting", n_sims=1, max_ticks=40)
        assert manifest["meta"]["params"] == want.to_jsonable()

    def test_player_count_must_split_into_teams(self, tmp_path):
        code = run("simulate", "--mode", "targeting", "--players", 4,
                   "--out", tmp_path / "x")
        assert code == 2


class TestTypes:
    def test_stdout_dump_parses(self, sim_dir, capsys):
        assert run("types", "--data", sim_dir, "--h", 1) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert {r["graph"] for r in records} == {
            "targeting-s00-p00", "targeting-s00-p01", "targeting-s00-p02"
        }
        assert {r["depth"] for r in records} == {0, 1}

    def test_out_file_matches_stdout(self, sim_dir, tmp_path, capsys):
        assert run("types", "--data", sim_dir, "--h", 1) == 0
        streamed = capsys.readouterr().out
        out = tmp_path / "types.jsonl"
        assert run("types", "--data", sim_dir, "--h", 1, "--out", out) == 0
        assert out.read_text(encoding="utf-8") == streamed

    def test_label_flags_and_method_letters_agree(self, sim_dir, capsys):
        dumps = {}
        for flags in (("--labels", "app", "--h", 2), ("--method", "A2"), ("--method", "a2"),
                      ("--h", 2), ("--labels", "generic", "--h", 2), ("--method", "G2")):
            assert run("types", "--data", sim_dir, *flags) == 0
            dumps[flags] = capsys.readouterr().out
        assert len(set(dumps.values())) == 2
        assert dumps[("--method", "A2")] == dumps[("--labels", "app", "--h", 2)] == dumps[("--h", 2)]
        assert dumps[("--method", "G2")] == dumps[("--labels", "generic", "--h", 2)]

    def test_provjson_document_ingests(self, tmp_path, capsys):
        doc = {
            "entity": {"e1": {}},
            "activity": {"a1": {}},
            "used": {"_:u1": {"prov:activity": "a1", "prov:entity": "e1"}},
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run("types", "--data", path, "--h", 1) == 0
        records = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert {r["node"] for r in records} == {"e1", "a1"}


    def test_warning_is_one_line_without_a_source_location(self, tmp_path, capsys):
        doc = {
            "entity": {"e1": {}},
            "used": {"_:u1": {"prov:activity": "a1", "prov:entity": "e1"}},
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run("types", "--data", path, "--h", 1) == 0
        warned = [l for l in capsys.readouterr().err.splitlines() if not l.startswith("wrote ")]
        assert len(warned) == 1
        assert warned[0].startswith("warning:") and "auto-declared" in warned[0]
        assert ".py:" not in warned[0]


class TestFeaturize:
    def test_csv_and_sidecar_agree(self, sim_dir, tmp_path):
        out = tmp_path / "feats.csv"
        assert run("featurize", "--data", sim_dir, "--method", "A1", "--out", out) == 0
        header, *rows = out.read_text(encoding="utf-8").strip().splitlines()
        names = header.split(",")[1:]
        sidecar = json.loads((tmp_path / "feats.names.json").read_text(encoding="utf-8"))
        assert set(names) == set(sidecar)
        assert all(n.startswith("FA") for n in names)
        assert len(rows) == 3
        for row in rows:
            cells = row.split(",")[1:]
            assert all(c.isdigit() for c in cells)

    def test_generic_mode_names(self, sim_dir, tmp_path):
        out = tmp_path / "g.csv"
        assert run("featurize", "--data", sim_dir, "--labels", "generic",
                   "--h", 0, "--out", out) == 0
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert all(n.startswith("FG0_") for n in header.split(",")[1:])


class TestGram:
    def test_integer_matrix_symmetric(self, sim_dir, tmp_path):
        out = tmp_path / "gram.csv"
        assert run("gram", "--data", sim_dir, "--method", "A2", "--out", out) == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        ids = lines[0].split(",")[1:]
        matrix = [row.split(",")[1:] for row in lines[1:]]
        assert [row.split(",")[0] for row in lines[1:]] == ids
        for i in range(len(ids)):
            for j in range(len(ids)):
                assert matrix[i][j] == matrix[j][i]
                int(matrix[i][j])
        timing = json.loads((tmp_path / "gram.timing.json").read_text(encoding="utf-8"))
        assert timing["featurize_seconds"] >= 0
        assert timing["kernel"] == "pk"

    def test_normalized_diagonal_is_one(self, sim_dir, tmp_path):
        out = tmp_path / "norm.csv"
        assert run("gram", "--data", sim_dir, "--method", "A2", "--normalize",
                   "--out", out) == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        for i, row in enumerate(lines[1:]):
            assert row.split(",")[1:][i] == "1"

    def test_thread_count_does_not_change_bytes(self, sim_dir, tmp_path):
        a, b = tmp_path / "t1.csv", tmp_path / "t4.csv"
        assert run("gram", "--data", sim_dir, "--method", "A3", "--out", a) == 0
        assert run("gram", "--data", sim_dir, "--method", "A3", "--threads", 4,
                   "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("kernel", ["vh", "eh", "wl"])
    def test_baseline_kernels_run(self, sim_dir, tmp_path, kernel):
        out = tmp_path / f"{kernel}.csv"
        assert run("gram", "--data", sim_dir, "--kernel", kernel, "--h", 1,
                   "--out", out) == 0
        assert out.exists()


class TestXval:
    def test_separable_dataset_is_perfect(self, tmp_path, capsys):
        data = two_class_dataset(tmp_path / "ds")
        assert run("xval", "--data", data, "--h", 0, "--labels", "app",
                   "--k", 4, "--repeats", 2, "--seed", 1) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["accuracies"]) == 8
        assert report["accuracies"] == [1.0] * 8
        assert report["mean"] == 1.0
        assert report["featurize_seconds"] > 0
        assert set(report) == {"accuracies", "ci95", "featurize_seconds", "mean"}

    def test_rerun_reproduces_everything_but_timing(self, tmp_path):
        data = two_class_dataset(tmp_path / "ds")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("xval", "--data", data, "--method", "A0", "--k", 4,
                       "--repeats", 2, "--seed", 9, "--out", out) == 0
        ra = json.loads(a.read_text(encoding="utf-8"))
        rb = json.loads(b.read_text(encoding="utf-8"))
        ra.pop("featurize_seconds")
        rb.pop("featurize_seconds")
        assert ra == rb

    def test_balance_flag_undersamples(self, tmp_path, capsys):
        data = two_class_dataset(tmp_path / "ds", n_a=8, n_b=4)
        assert run("xval", "--data", data, "--h", 0, "--k", 4, "--repeats", 1,
                   "--balance") == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["accuracies"]) == 4

    def test_single_class_is_a_data_error(self, tmp_path):
        data = two_class_dataset(tmp_path / "ds", n_a=6, n_b=0)
        assert run("xval", "--data", data, "--h", 0) == 3

    @pytest.mark.parametrize("balance", [(), ("--balance",)], ids=["plain", "balanced"])
    def test_report_same_with_library_defaults_spelled_out(self, tmp_path, balance):
        family = random_family(random.Random(4), 44, max_nodes=8, max_edges=14)
        labels = {gid: "b" if i % 2 or i < 8 else "a" for i, gid in enumerate(family.graph_ids)}
        save_internal(Dataset(family, labels), tmp_path / "ds")

        def report(*flags):
            out = tmp_path / "report.json"
            assert run("xval", "--data", tmp_path / "ds", "--method", "A1", *balance,
                       *flags, "--out", out) == 0
            blob = json.loads(out.read_text(encoding="utf-8"))
            blob.pop("featurize_seconds")
            return blob

        spelled = ("--C", 1.0, "--k", 10, "--repeats", 10, "--seed", 0)
        assert report() == report(*spelled)
        # The pair is not equal by accident: another bound or seed gives
        # another report.  At C = 1 the plain run predicts the majority class
        # of these noise labels in every fold, whatever the seed, so the seed
        # is checked at a harder margin.
        assert report() != report("--C", 100.0)
        assert report("--C", 100.0) != report("--C", 100.0, "--seed", 1)


    @pytest.mark.parametrize("method", [["--method", "A2"], ["--kernel", "wl", "--h", "1"]])
    def test_raw_c_is_relative_to_the_largest_self_kernel(self, tmp_path, method):
        # Each graph of the second set also holds a renamed disjoint copy of
        # itself, so its raw Gram is exactly 4 times the first's, and 4k/4t
        # rounds as k/t does: --C must mean the same on both.
        family = random_family(random.Random(4), 44, max_nodes=8, max_edges=14)
        labels = {gid: "ab"[i % 2] for i, gid in enumerate(family.graph_ids)}
        doubled = GraphFamily(tuple(
            ProvGraph(g.graph_id, {**g.nodes, **{f"copy.{n}": s for n, s in g.nodes.items()}},
                      g.edges + tuple((f"copy.{u}", f"copy.{v}", e) for u, v, e in g.edges))
            for g in family
        ))
        reports = []
        for name, fam in (("once", family), ("twice", doubled)):
            save_internal(Dataset(fam, labels), tmp_path / name)
            out = tmp_path / f"{name}.json"
            assert run("xval", "--data", tmp_path / name, *method, "--repeats", 2,
                       "--out", out) == 0
            blob = json.loads(out.read_text(encoding="utf-8"))
            blob.pop("featurize_seconds")
            reports.append(blob)
        assert reports[0] == reports[1]

    def test_iteration_cap_is_reported_once_with_the_count(self, tmp_path, monkeypatch, capsys):
        family = random_family(random.Random(4), 44, max_nodes=8, max_edges=14)
        labels = {gid: "ab"[i % 2] for i, gid in enumerate(family.graph_ids)}
        save_internal(Dataset(family, labels), tmp_path / "ds")
        monkeypatch.setattr(mlpipe, "smo_lockstep", functools.partial(svm.smo_lockstep, max_iter=3))
        assert run("xval", "--data", tmp_path / "ds", "--method", "A1", "--repeats", 2,
                   "--out", tmp_path / "r.json") == 0
        warned = [l for l in capsys.readouterr().err.splitlines() if l.startswith("warning:")]
        assert len(warned) == 1
        assert re.fullmatch(r"warning: SMO stopped at the iteration cap in [1-9]\d* of 40 solves "
                            r"\(max_iter=3, tol=0\.001\)", warned[0])


class TestCompare:
    @staticmethod
    def write_report(path, accuracies):
        blob = {
            "accuracies": accuracies,
            "mean": sum(accuracies) / len(accuracies),
            "ci95": [0.0, 1.0],
            "featurize_seconds": 0.0,
        }
        path.write_text(json.dumps(blob), encoding="utf-8")
        return path

    def test_identical_reports_tie(self, tmp_path, capsys):
        a = self.write_report(tmp_path / "ra.json", [0.5] * 10)
        b = self.write_report(tmp_path / "rb.json", [0.5] * 10)
        assert run("compare", a, b) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["verdict"] == "="
        assert verdict["p"] == 1.0
        assert verdict["methodA"] == "ra"

    def test_clear_winner(self, tmp_path, capsys):
        a = self.write_report(tmp_path / "ra.json", [0.9] * 10)
        b = self.write_report(tmp_path / "rb.json", [0.1] * 10)
        assert run("compare", a, b, "--name-a", "PK", "--name-b", "WL") == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["verdict"] == "A"
        assert verdict["methodA"] == "PK"
        assert verdict["meanDiff"] == pytest.approx(0.8)

    def test_malformed_report_is_a_data_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"mean\": 0.5}", encoding="utf-8")
        ok = self.write_report(tmp_path / "ok.json", [0.5] * 4)
        assert run("compare", bad, ok) == 3

    @pytest.mark.parametrize("blob, message", [
        ({"accuracies": [0.5, 0.6], "mean": 0.1}, "stated mean 0.1 is not its accuracies' mean"),
        ({"accuracies": [], "mean": 0.0}, "no accuracies"),
        ({"accuracies": [0.5, 0.7], "mean": "0.6"}, "stated mean '0.6' is not a number"),
        ({"accuracies": [1, 1], "mean": True}, "stated mean True is not a number"),
    ], ids=["wrong-mean", "empty", "string-mean", "bool-mean"])
    def test_report_refused_with_its_path(self, tmp_path, capsys, blob, message):
        # A report is rebuilt from its accuracies; its stated mean must be
        # theirs, and a number by the accuracies' rule (int or float, not bool).
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**blob, "ci95": [0.0, 1.0]}), encoding="utf-8")
        ok = self.write_report(tmp_path / "ok.json", [0.5] * 4)
        assert run("compare", ok, bad) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: {message}")

    @pytest.mark.parametrize("accuracies, mean", [
        ([1.5, 2.0], 1.75), ([-3, 0.5], -1.25), (["0.5", "0.7"], 0.6), ([0.5, float("nan")], 0.5),
    ], ids=["above-one", "negative", "strings", "nan"])
    def test_impossible_accuracy_refused(self, tmp_path, capsys, accuracies, mean):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"accuracies": accuracies, "mean": mean}), encoding="utf-8")
        ok = self.write_report(tmp_path / "ok.json", [0.5] * 4)
        assert run("compare", bad, ok) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {bad}: accuracy ")
        assert err[0].endswith(" is not a number in [0, 1]")

    @pytest.mark.parametrize("alpha", [2, -1, 0, 1])
    def test_alpha_outside_unit_interval_is_a_data_error(self, tmp_path, capsys, alpha):
        a = self.write_report(tmp_path / "ra.json", [0.9] * 10)
        b = self.write_report(tmp_path / "rb.json", [0.1] * 10)
        assert run("compare", a, b, "--alpha", alpha) == 3
        assert capsys.readouterr().err == f"error: alpha {float(alpha)!r} outside (0, 1)\n"


class TestExplain:
    def test_instances_listed(self, tmp_path, capsys):
        data = two_class_dataset(tmp_path / "ds", n_a=2, n_b=2)
        assert run("explain", "--data", data, "--feature", "FA0_0") == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["feature"] == "FA0_0"
        assert len(blob["instances"]) == 6
        graph_ids = {gid for gid, _ in blob["instances"]}
        assert graph_ids <= {"a0", "a1", "b0", "b1"}

    def test_distance_between_features(self, tmp_path, capsys):
        data = two_class_dataset(tmp_path / "ds", n_a=2, n_b=2)
        assert run("explain", "--data", data, "--feature", "FA0_0",
                   "--distance-to", "FA0_1") == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["distance"] == {"num": 2, "den": 3}

    def test_distance_across_label_modes(self, tmp_path, capsys):
        data = two_class_dataset(tmp_path / "ds", n_a=2, n_b=2)
        assert run("explain", "--data", data, "--feature", "FG0_0",
                   "--distance-to", "FA0_0") == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["distance"] == {"num": 1, "den": 2}

    def test_index_past_universe_is_a_data_error(self, tmp_path):
        data = two_class_dataset(tmp_path / "ds", n_a=2, n_b=2)
        assert run("explain", "--data", data, "--feature", "FA0_99") == 3


def _record(i: int, node_id: bytes) -> bytes:
    """One JSONL graph record, as raw bytes, with a one-node graph."""
    head = b'{"edges":[],"id":"g%d","label":"x","nodes":[{"id":"' % i
    return head + node_id + b'","labels":["ent"]}]}\n'


class TestExitCodes:
    def test_unknown_flag(self, tmp_path):
        assert run("gram", "--data", tmp_path, "--bogus") == 2

    def test_method_conflicts_with_h(self, sim_dir, tmp_path):
        assert run("gram", "--data", sim_dir, "--method", "A3", "--h", 1,
                   "--out", tmp_path / "g.csv") == 2

    def test_h_out_of_range(self, sim_dir, tmp_path):
        assert run("gram", "--data", sim_dir, "--h", 7,
                   "--out", tmp_path / "g.csv") == 2

    def test_threads_below_one(self, sim_dir, tmp_path):
        assert run("gram", "--data", sim_dir, "--threads", 0,
                   "--out", tmp_path / "g.csv") == 2

    def test_missing_data(self, tmp_path):
        assert run("types", "--data", tmp_path / "nope") == 3

    def test_unknown_mode_is_usage(self, tmp_path, capsys):
        # SimParams holds the one list of modes and the one check of --mode.
        assert run("simulate", "--mode", "bogus", "--out", tmp_path / "sim") == 2
        err = capsys.readouterr().err
        assert "unknown mode 'bogus' (expected one of targeting, disposal)" in err
        assert not (tmp_path / "sim").exists()

    def test_malformed_feature_name_is_usage(self, sim_dir):
        # Leading zeros would resolve to a name that no sidecar holds.
        for name in ("FB1_0", "FA03_0", "FA1_00"):
            assert run("explain", "--data", sim_dir, "--feature", name) == 2, name

    def test_feature_deeper_than_any_type_is_usage(self, sim_dir):
        assert run("explain", "--data", sim_dir, "--feature", "FA9_0") == 2

    def test_explain_takes_no_h(self, tmp_path, capsys):
        # The depth comes from the feature names; --h is no explain flag.
        assert run("explain", "--data", tmp_path / "nope", "--feature", "FA3_0", "--h", 3) == 2
        assert "unrecognized arguments: --h 3" in capsys.readouterr().err

    def test_distance_across_depths_is_usage(self, tmp_path, capsys):
        # Decided from the names alone, before any data is read.
        assert run("explain", "--data", tmp_path / "nope", "--feature", "FA2_3",
                   "--distance-to", "FG1_0") == 2
        assert "--distance-to needs a feature of depth 2, not 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, prefixed",
        [
            (["types", "--data", "nope"], ["--meth", "A3"]),
            (["featurize", "--data", "nope", "--out", "f.csv"], ["--meth", "A3"]),
            (["gram", "--data", "nope", "--out", "g.csv"], ["--norm"]),
            (["simulate", *map(str, SIM_ARGS), "--out", "sim"], ["--ball", "5"]),
            (["xval", "--data", "nope"], ["--rep", "2"]),
            (["compare", "a.json", "b.json"], ["--alph", "0.1"]),
            (["explain", "--data", "nope", "--feature", "FA0_0"], ["--distance", "FA0_1"]),
        ],
        ids=lambda x: x[0],
    )
    def test_flag_prefix_is_usage(self, tmp_path, monkeypatch, capsys, argv, prefixed):
        # A unique prefix of a flag is not that flag.
        monkeypatch.chdir(tmp_path)
        assert run(*argv, *prefixed) == 2
        assert "unrecognized arguments: " + " ".join(prefixed) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["types", "featurize", "gram", "simulate", "xval", "compare", "explain"]
    )
    def test_help_exits_zero(self, command, capsys):
        assert run(command, "--help") == 0
        assert capsys.readouterr().out.startswith(f"usage: provkit {command}")

    def test_corrupt_graph_file(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json}\n", encoding="utf-8")
        assert run("types", "--data", bad) == 3

    @pytest.mark.parametrize("name", [MANIFEST_NAME, "other.json"])
    @pytest.mark.parametrize("manifest", [{"format": "provkit-dataset/0"}, []],
                             ids=["wrong-tag", "array"])
    def test_untagged_manifest_is_a_data_error(self, tmp_path, name, manifest):
        data = two_class_dataset(tmp_path / "ds")
        if isinstance(manifest, dict):
            blob = json.loads((data / MANIFEST_NAME).read_text(encoding="utf-8"))
            manifest = {**blob, **manifest}
        (data / name).write_text(json.dumps(manifest), encoding="utf-8")
        with warnings.catch_warnings():
            # Under another name an untagged file is read as a PROV-JSON document.
            warnings.simplefilter("ignore", ProvJsonWarning)
            assert run("types", "--data", data / name, "--h", 0) == 3

    @pytest.mark.parametrize("tag", ["provkit-dataset/0", None], ids=["wrong-tag", "no-tag"])
    def test_misnamed_manifest_is_read_as_a_manifest(self, tmp_path, tag, capsys):
        data = two_class_dataset(tmp_path / "ds")
        manifest = json.loads((data / MANIFEST_NAME).read_text(encoding="utf-8"))
        del manifest["format"]
        if tag is not None:
            manifest["format"] = tag
        (data / "other.json").write_text(json.dumps(manifest), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            assert run("types", "--data", data / "other.json", "--h", 0) == 3
        err = capsys.readouterr().err
        assert "warning:" not in err  # not read as PROV-JSON, so nothing skipped
        assert "unrecognized manifest format" in err

    def test_manifest_files_must_be_a_list(self, tmp_path, capsys):
        data = two_class_dataset(tmp_path / "ds")
        manifest = json.loads((data / MANIFEST_NAME).read_text(encoding="utf-8"))
        manifest["files"] = "graphs.jsonl"
        (data / MANIFEST_NAME).write_text(json.dumps(manifest), encoding="utf-8")
        assert run("types", "--data", data, "--h", 0) == 3
        assert "manifest 'files' must be a list of file names" in capsys.readouterr().err

    def test_missing_report_is_a_data_error(self, tmp_path):
        assert run("compare", tmp_path / "a.json", tmp_path / "b.json") == 3

    @pytest.mark.parametrize("name, data, where", [
        ("bad.json", b'\xff{"entity": {}}', "bad.json: "),
        ("bad.jsonl", _record(0, b"n\xff"), "bad.jsonl:1: "),
        # Past the text decoder's first 8 KiB chunk, whose offsets name no line.
        ("bad.jsonl", _record(0, b"n" * 5000) + _record(1, b"n" * 5000) + _record(2, b"n\xff"),
         "bad.jsonl:3: "),
    ], ids=["json", "jsonl", "jsonl-line3"])
    def test_non_utf8_input_names_its_file(self, tmp_path, capsys, name, data, where):
        (tmp_path / name).write_bytes(data)
        assert run("types", "--data", tmp_path / name, "--out", tmp_path / "t.jsonl") == 3
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert len(errors) == 1 and f"{where}not valid UTF-8" in errors[0]
        assert not list(tmp_path.glob(".*.part"))

    def test_overflow_refusal_is_a_data_error(self, tmp_path, monkeypatch, capsys):
        import provkit.cli as cli

        def refuse(*args, **kwargs):
            # No family whose counts overflow int64 fits in memory.
            raise OverflowError("exact 64-bit kernel accumulation could overflow for this family")

        monkeypatch.setattr(cli, "gram", refuse)
        data = two_class_dataset(tmp_path / "ds")
        assert run("gram", "--data", data, "--h", 0, "--out", tmp_path / "g.csv") == 3
        assert capsys.readouterr().err.startswith("error: exact 64-bit kernel accumulation")
        assert not list(tmp_path.glob(".*.part"))


class TestStaging:
    def test_failed_command_leaves_no_outputs(self, tmp_path):
        data = two_class_dataset(tmp_path / "ds", n_a=6, n_b=0)
        out = tmp_path / "rep.json"
        assert run("xval", "--data", data, "--h", 0, "--out", out) == 3
        assert not out.exists()
        assert not list(tmp_path.glob("*.part"))

    def test_zero_self_kernel_normalization_fails_clean(self, tmp_path):
        empty = ProvGraph("e0", {}, ())
        save_internal(
            Dataset(GraphFamily((empty,)), {"e0": "z"}, {}), tmp_path / "ds"
        )
        out = tmp_path / "gram.csv"
        code = run("gram", "--data", tmp_path / "ds", "--h", 0, "--normalize",
                   "--out", out)
        assert code == 3
        assert not out.exists()
        assert not list(tmp_path.glob("*.part"))

    def test_unencodable_output_leaves_no_part_file(self, tmp_path):
        # A lone surrogate parses from JSON but cannot be written as UTF-8.
        record = {"id": "\ud800", "label": "x", "edges": [],
                  "nodes": [{"id": "n0", "labels": ["ent"]}]}
        data = tmp_path / "graphs.jsonl"
        data.write_text(json.dumps(record) + "\n", encoding="utf-8")
        out = tmp_path / "f.csv"
        assert run("featurize", "--data", data, "--h", 0, "--out", out) == 3
        assert not out.exists()
        assert not list(tmp_path.glob(".*.part"))

    def test_large_artifact_written_whole(self, tmp_path, monkeypatch):
        import provkit.cli as cli

        monkeypatch.setattr(cli, "_WRITE_CHARS", 7)
        sink = cli._ArtifactSink()
        text = "graph_id,é☃\U0001f600\n" * 5
        sink.stage_text(tmp_path / "a.csv", text)
        assert sink.commit() == [tmp_path / "a.csv"]
        assert (tmp_path / "a.csv").read_bytes() == text.encode("utf-8")


def test_pipeline_never_builds_per_node_dicts(sim_dir, tmp_path, monkeypatch):
    from provkit.typeinf import TypeAssignment

    def refuse(self):
        raise AssertionError("by_graph materialized")

    def refuse_views(self):
        raise AssertionError("ProvGraph views of the family built")

    monkeypatch.setattr(TypeAssignment, "by_graph", property(refuse))
    monkeypatch.setattr(GraphFamily, "graphs", property(refuse_views))
    assert run("types", "--data", sim_dir, "--method", "A5",
               "--out", tmp_path / "t.jsonl") == 0
    assert run("featurize", "--data", sim_dir, "--method", "A3",
               "--out", tmp_path / "f.csv") == 0
    assert run("gram", "--data", sim_dir, "--method", "A3", "--normalize",
               "--out", tmp_path / "g.csv") == 0
    for kern in (("wl", "--h", 3), ("vh",), ("eh",)):
        assert run("gram", "--data", sim_dir, "--kernel", *kern,
                   "--out", tmp_path / f"{kern[0]}.csv") == 0
    two_class = two_class_dataset(tmp_path / "two")
    assert run("xval", "--data", two_class, "--method", "A0", "--k", 2, "--repeats", 1,
               "--out", tmp_path / "x.json") == 0
    assert run("xval", "--data", two_class, "--kernel", "wl", "--h", 1, "--k", 2,
               "--repeats", 1, "--out", tmp_path / "xw.json") == 0
    assert run("explain", "--data", sim_dir, "--feature", "FA2_0",
               "--out", tmp_path / "e.json") == 0
    assert run("explain", "--data", sim_dir, "--feature", "FA2_0",
               "--distance-to", "FG2_0", "--out", tmp_path / "d.json") == 0
    blob = json.loads((tmp_path / "e.json").read_text(encoding="utf-8"))
    assert blob["instances"]


def test_provjson_pipeline_never_builds_a_graph(tmp_path, monkeypatch):
    doc = {
        "entity": {"e1": {"prov:type": "x:A"}, "e2": {}},
        "activity": {"a1": {}},
        "agent": {"ag1": {}},
        "wasGeneratedBy": {"_:g1": {"prov:entity": "e1", "prov:activity": "a1"}},
        "used": {"_:u1": {"prov:activity": "a1", "prov:entity": "e2"}},
        "wasAssociatedWith": {"_:w1": {"prov:activity": "a1", "prov:agent": "ag1"}},
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")

    def refuse_graph(self):
        raise AssertionError("ProvGraph built")

    def refuse_views(self):
        raise AssertionError("ProvGraph views of the family built")

    monkeypatch.setattr(ProvGraph, "__post_init__", refuse_graph)
    monkeypatch.setattr(GraphFamily, "graphs", property(refuse_views))
    for method in ("A5", "G3"):
        assert run("types", "--data", path, "--method", method,
                   "--out", tmp_path / f"{method}.jsonl") == 0
    assert run("explain", "--data", path, "--feature", "FA1_0",
               "--out", tmp_path / "e.json") == 0
    assert run("explain", "--data", path, "--feature", "FA1_0",
               "--distance-to", "FA1_1", "--out", tmp_path / "d.json") == 0
    blob = json.loads((tmp_path / "e.json").read_text(encoding="utf-8"))
    assert blob["instances"]
    records = [json.loads(line) for line in (tmp_path / "A5.jsonl").read_text().splitlines()]
    assert {r["node"] for r in records} == {"e1", "e2", "a1", "ag1"}


def _subparser(name: str) -> argparse.ArgumentParser:
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return subparsers.choices[name]


def test_library_keywords_keep_their_only_defaults_in_the_library():
    keywords = {
        name
        for fn in (repeated_kfold, balance_undersample, compare_reports)
        for name, param in inspect.signature(fn).parameters.items()
        if param.default is not param.empty
    }
    # --threads is checked and then ignored: it never reaches repeated_kfold.
    keywords.discard("threads")
    checked = {}
    for command in ("xval", "compare"):
        for action in _subparser(command)._actions:
            if action.dest in keywords:
                assert action.default is argparse.SUPPRESS, (command, action.dest)
                checked.setdefault(command, set()).add(action.dest)
    assert checked == {"xval": {"C", "k", "repeats", "seed"}, "compare": {"alpha"}}


def test_manifest_under_another_name_is_decoded_once(tmp_path, monkeypatch):
    data = two_class_dataset(tmp_path / "ds")
    text = (data / MANIFEST_NAME).read_text(encoding="utf-8")
    (data / "other.json").write_text(text, encoding="utf-8")
    decoded = []
    loads = json.loads

    def counting_loads(s, *args, **kwargs):
        decoded.append(s)
        return loads(s, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    assert run("types", "--data", data / "other.json", "--h", 0,
               "--out", tmp_path / "t.jsonl") == 0
    assert decoded.count(text) == 1
