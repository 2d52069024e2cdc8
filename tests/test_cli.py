"""End-to-end checks of the command line interface."""

from __future__ import annotations

import json

import pytest

from provkit.cli import main
from provkit.model import Dataset, GraphFamily, ProvGraph
from provkit.storage import load_internal, save_internal


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


class TestCompare:
    def write_report(self, path, accuracies):
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

    def test_malformed_feature_name_is_usage(self, sim_dir):
        assert run("explain", "--data", sim_dir, "--feature", "FB1_0") == 2

    def test_corrupt_graph_file(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json}\n", encoding="utf-8")
        assert run("types", "--data", bad) == 3


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
