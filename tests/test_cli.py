import contextlib
import io
import json

import pytest

import rankregret as rr
from rankregret.cli import main
from rankregret.datagen import save_csv

from conftest import DEMO7_VALUES


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def demo_csv(tmp_path):
    p = tmp_path / "demo7.csv"
    save_csv(rr.Dataset(DEMO7_VALUES), p)
    return str(p)


@pytest.fixture()
def d3_csv(tmp_path):
    from rankregret.datagen import GenSpec, generate
    p = tmp_path / "d3.csv"
    save_csv(generate(GenSpec("independent", 40, 3, seed=2)), p)
    return str(p)


class TestNetbound:
    def test_prints_known_value(self):
        code, out, _ = run(["netbound", "--c", "1", "--d", "3", "--eps", "0.1"])
        assert code == 0
        assert out.strip() == "215577"

    def test_second_value(self):
        code, out, _ = run(["netbound", "--c", "1", "--d", "4", "--eps", "0.1"])
        assert code == 0 and out.strip() == "172186147"


class TestSolve:
    def test_2d_demo(self, demo_csv):
        code, out, _ = run(["solve", "--algo", "2d", "--r", "1",
                            "--input", demo_csv])
        assert code == 0
        data = json.loads(out)
        assert data["indices"] == [3]
        assert data["rank_regret"] == 3
        assert data["size"] == 1
        assert data["params"]["config"]["algo"] == "2d"
        # the band at K = 1 bounds the optimum below by 3, and the next
        # band, at K = min(7, 2 * 3) = 6, holds all 7 tuples and gives
        # the optimum
        assert data["params"]["band_k"] == 6
        assert data["params"]["band_size"] == 7

    def test_2d_refused_for_d3(self, d3_csv):
        code, _, err = run(["solve", "--algo", "2d", "--r", "2", "--input", d3_csv])
        assert code == 2
        assert "2-attribute" in err

    def test_hd_runs_and_embeds_config(self, d3_csv):
        code, out, _ = run(["solve", "--algo", "hd", "--r", "4", "--input", d3_csv,
                            "--m", "60", "--seed", "5"])
        assert code == 0
        data = json.loads(out)
        assert data["size"] <= 4
        assert data["params"]["m"] == 60
        assert data["params"]["config"]["seed"] == 5
        # first prefix width ceil(40 / log2(41)) = 8; no threshold above 8 is tested
        assert max(k for k, _ in data["params"]["cover_calls"]) == 8
        assert data["params"]["order_width"] == 8
        witness = data["params"]["witness"]
        assert len(witness["vector"]) == 3
        assert 0 <= witness["index"] < data["params"]["discretization_size"]

    def test_restrict_file(self, demo_csv, tmp_path):
        spath = tmp_path / "space.json"
        spath.write_text(json.dumps({"halfspaces": [[1.0, -1.0]]}), encoding="utf-8")
        code, out, _ = run(["solve", "--algo", "2d", "--r", "1",
                            "--input", demo_csv, "--restrict", str(spath)])
        assert code == 0
        data = json.loads(out)
        assert data["params"]["interval"] == [0.5, 1.0]

    def test_reproducible_bytes(self, d3_csv):
        args = ["solve", "--algo", "hd", "--r", "3", "--input", d3_csv,
                "--m", "80", "--seed", "9"]
        _, a, _ = run(args)
        _, b, _ = run(args)
        assert a == b

    def test_out_file(self, demo_csv, tmp_path):
        target = tmp_path / "res.json"
        code, out, _ = run(["solve", "--algo", "2d", "--r", "2",
                            "--input", demo_csv, "--out", str(target)])
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["rank_regret"] == 2

    def test_linear_scan_flag(self, d3_csv):
        code, out, _ = run(["solve", "--algo", "hd", "--r", "4", "--input", d3_csv,
                            "--m", "40", "--seed", "1", "--linear-scan"])
        assert code == 0
        data = json.loads(out)
        assert "linear_scan" in data
        assert data["linear_scan"]["search_k"] == data["rank_regret"]

    def test_linear_scan_with_2d_is_usage_error(self, demo_csv):
        code, out, err = run(["solve", "--algo", "2d", "--r", "1", "--input", demo_csv,
                              "--linear-scan"])
        assert code == 1 and out == ""
        assert "usage error" in err and "--linear-scan" in err

    @pytest.mark.parametrize("text", ['[[1, -1]]', '"x"', '{"halfspaces": 5}',
                                      '{"halfspaces": [1, -1]}', '{"halfspaces": [[null, 1]]}',
                                      '{"halfspace": [[1, -1]]}', '{}'],
                             ids=["list", "string", "number", "flat-list", "null-entry",
                                  "misspelled-key", "empty-object"])
    def test_malformed_restrict_file_exits_2(self, demo_csv, tmp_path, text):
        spath = tmp_path / "space.json"
        spath.write_text(text, encoding="utf-8")
        code, out, err = run(["solve", "--algo", "2d", "--r", "1",
                              "--input", demo_csv, "--restrict", str(spath)])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(spath) in err
        assert "Traceback" not in err

    def test_empty_halfspace_list_is_the_full_space(self, demo_csv, tmp_path):
        spath = tmp_path / "space.json"
        spath.write_text('{"halfspaces": []}', encoding="utf-8")
        code, out, _ = run(["solve", "--algo", "2d", "--r", "1",
                            "--input", demo_csv, "--restrict", str(spath)])
        assert code == 0
        data = json.loads(out)
        assert data["params"]["halfspaces"] == [] and data["indices"] == [3]

    def test_missing_required_flag_is_usage_error(self, demo_csv):
        code, _, err = run(["solve", "--algo", "2d", "--input", demo_csv])
        assert code == 1
        assert "usage error" in err


class TestRrr:
    def test_2d_demo_k3(self, demo_csv):
        code, out, _ = run(["rrr", "--algo", "2d", "--k", "3", "--input", demo_csv])
        assert code == 0
        data = json.loads(out)
        assert data["indices"] == [3] and data["size"] == 1
        assert data["params"]["band_k"] == 3
        assert data["params"]["band_size"] == 5

    def test_hd(self, d3_csv):
        code, out, _ = run(["rrr", "--algo", "hd", "--k", "6", "--input", d3_csv,
                            "--m", "50", "--seed", "3"])
        assert code == 0
        data = json.loads(out)
        assert data["rank_regret"] <= 6
        # no threshold above k = 6 is visited, so the prefix is k wide
        assert data["params"]["order_width"] == 6


class TestEval:
    def test_full_range_set(self, demo_csv):
        code, out, _ = run(["eval", "--input", demo_csv, "--set", "1..7",
                            "--samples", "1000", "--seed", "2",
                            "--metrics", "rank,ratk", "--ks", "1"])
        assert code == 0
        data = json.loads(out)
        assert data["estimated_rank_regret"] == 1
        assert data["rat_k"]["1"] == 1.0

    def test_regret_ratio_metric(self, demo_csv):
        code, out, _ = run(["eval", "--input", demo_csv, "--set", "4",
                            "--samples", "50000", "--seed", "2",
                            "--metrics", "regret-ratio"])
        assert code == 0
        assert abs(json.loads(out)["max_regret_ratio"] - 0.40) < 0.01

    def test_bad_metric_usage_error(self, demo_csv):
        code, _, err = run(["eval", "--input", demo_csv, "--set", "1",
                            "--metrics", "nope"])
        assert code == 1 and "usage error" in err

    def test_bad_set_usage_error(self, demo_csv):
        code, _, _ = run(["eval", "--input", demo_csv, "--set", "0,9"])
        assert code == 1

    def test_huge_range_refused_before_expansion(self, demo_csv):
        # a range reaching past n is refused by its ends, not expanded
        code, _, err = run(["eval", "--input", demo_csv, "--set", "1..1000000000000"])
        assert code == 1 and "usage error" in err and "1..7" in err
        code, _, err = run(["eval", "--input", demo_csv, "--set=-1000000000000..3"])
        assert code == 1 and "1..7" in err

    def test_malformed_set_usage_error(self, demo_csv):
        code, _, err = run(["eval", "--input", demo_csv, "--set", "1..x"])
        assert code == 1 and "usage error" in err and "'x'" in err

    def test_reversed_range_usage_error(self, demo_csv):
        # not silently expanded to nothing, which would evaluate {1}
        code, out, err = run(["eval", "--input", demo_csv, "--set", "1,5..3"])
        assert code == 1 and out == "" and "usage error" in err and "'5..3'" in err

    def test_empty_set_usage_error(self, demo_csv):
        code, out, err = run(["eval", "--input", demo_csv, "--set", ","])
        assert code == 1 and out == "" and "empty index set" in err

    def test_malformed_ks_usage_error(self, demo_csv):
        code, _, err = run(["eval", "--input", demo_csv, "--set", "1",
                            "--metrics", "ratk", "--ks", "a"])
        assert code == 1 and "usage error" in err and "'a'" in err

    def test_negate_takes_header_names(self, demo_csv):
        code, _, err = run(["eval", "--input", demo_csv, "--set", "1", "--negate", "2"])
        assert code == 2 and "negate column '2' is not in the header" in err

    def test_negate_column_twice_is_an_error(self, demo_csv):
        # not flipped back, which would load the column as if never negated
        code, out, err = run(["solve", "--algo", "2d", "--r", "1", "--input", demo_csv,
                              "--negate", "A1", "A1"])
        assert code == 2 and out == ""
        assert f"{demo_csv}: negate column 'A1' is given more than once" in err

    def test_negate_name_the_header_repeats_is_an_error(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("a,a\n1,4\n2,5\n3,6\n", encoding="utf-8")
        code, out, err = run(["eval", "--input", str(p), "--set", "1", "--negate", "a"])
        assert code == 2 and out == ""
        assert f"{p}: negate column 'a' is ambiguous" in err


class TestGen:
    def test_writes_csv(self, tmp_path):
        target = tmp_path / "gen.csv"
        code, _, _ = run(["gen", "--family", "anti-correlated", "--n", "50",
                          "--d", "3", "--seed", "4", "--out", str(target)])
        assert code == 0
        D = rr.load_csv(target, normalize=False)
        assert (D.n, D.d) == (50, 3)

    def test_seed_reproducible(self):
        args = ["gen", "--family", "independent", "--n", "10", "--d", "2",
                "--seed", "6"]
        _, a, _ = run(args)
        _, b, _ = run(args)
        assert a == b

    def test_env_seed_fallback(self, monkeypatch):
        monkeypatch.setenv("RRK_SEED", "123")
        _, a, _ = run(["gen", "--family", "independent", "--n", "5", "--d", "2"])
        monkeypatch.setenv("RRK_SEED", "124")
        _, b, _ = run(["gen", "--family", "independent", "--n", "5", "--d", "2"])
        assert a != b

    def test_malformed_env_seed_usage_error(self, monkeypatch):
        monkeypatch.setenv("RRK_SEED", "abc")
        code, out, err = run(["gen", "--family", "independent", "--n", "5", "--d", "2"])
        assert code == 1 and out == "" and "RRK_SEED must be an integer" in err


class TestOracle:
    def test_arc_mode(self):
        code, out, _ = run(["oracle", "--mode", "arc", "--n", "30", "--r", "2"])
        assert code == 0
        data = json.loads(out)
        assert data["optimal_value"] >= 1
        assert data["method"] == "exhaustive-2d-exact"

    def test_exhaustive_mode(self, demo_csv):
        code, out, _ = run(["oracle", "--mode", "exhaustive", "--input", demo_csv,
                            "--r", "1"])
        assert code == 0
        data = json.loads(out)
        assert data["optimal_value"] == 3
        assert data["optimal_sets"] == [[3]]

    def test_exhaustive_mode_sampled_d3(self, tmp_path):
        target = str(tmp_path / "d3.csv")
        run(["gen", "--family", "independent", "--n", "12", "--d", "3", "--seed", "5",
             "--out", target])
        code, out, _ = run(["oracle", "--mode", "exhaustive", "--input", target, "--r", "2",
                            "--samples", "2000", "--seed", "3"])
        assert code == 0
        data = json.loads(out)
        assert data["method"] == "exhaustive-sampled"
        assert (data["samples"], data["seed"]) == (2000, 3)

    def test_exhaustive_requires_input(self):
        code, out, err = run(["oracle", "--mode", "exhaustive", "--r", "2"])
        assert code == 1 and out == "" and "exhaustive mode requires --input" in err

    def test_guard_exits_2(self):
        code, _, err = run(["oracle", "--mode", "arc", "--n", "400", "--r", "5"])
        assert code == 2
        assert "guard" in err

    def test_arc_requires_n(self):
        code, _, _ = run(["oracle", "--mode", "arc", "--r", "2"])
        assert code == 1


class TestSolveEvalPipeline:
    def test_hd_solve_then_eval_reaches_confidence(self, tmp_path):
        # solving and then evaluating the output set on fresh vectors
        # reproduces the high-probability coverage contract end to end
        from rankregret.datagen import GenSpec, generate
        data = tmp_path / "d3.csv"
        save_csv(generate(GenSpec("independent", 200, 3, seed=6)), data)
        code, out, _ = run(["solve", "--algo", "hd", "--r", "6",
                            "--input", str(data), "--seed", "6"])
        assert code == 0
        solved = json.loads(out)
        index_list = ",".join(str(i) for i in solved["indices"])
        code, out, _ = run(["eval", "--input", str(data), "--set", index_list,
                            "--samples", "20000", "--seed", "99",
                            "--metrics", "rank,ratk", "--ks",
                            str(solved["rank_regret"])])
        assert code == 0
        evaluated = json.loads(out)
        assert evaluated["rat_k"][str(solved["rank_regret"])] >= 0.97

    def test_restricted_hd_solve_then_eval(self, d3_csv, tmp_path):
        spath = tmp_path / "space.json"
        spath.write_text(json.dumps({"halfspaces": [[1, -1, 0]]}), encoding="utf-8")
        code, out, _ = run(["solve", "--algo", "hd", "--r", "3", "--input", d3_csv,
                            "--m", "200", "--seed", "5", "--restrict", str(spath)])
        assert code == 0
        solved = json.loads(out)
        assert solved["params"]["halfspaces"] == [[1.0, -1.0, 0.0]]
        u = solved["params"]["witness"]["vector"]
        assert u[0] - u[1] >= 0
        index_list = ",".join(str(i) for i in solved["indices"])
        code, out, _ = run(["eval", "--input", d3_csv, "--set", index_list,
                            "--samples", "2000", "--seed", "5", "--restrict", str(spath)])
        assert code == 0
        evaluated = json.loads(out)
        assert evaluated["config"]["restrict"] == str(spath)
        assert 1 <= evaluated["estimated_rank_regret"] <= 40


class TestHelp:
    def test_unknown_command_usage_error(self):
        code, _, _ = run(["frobnicate"])
        assert code == 1
