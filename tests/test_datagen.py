import json

import numpy as np
import pytest

import rankregret as rr
from rankregret.datagen import (
    GenSpec,
    csv_text,
    generate,
    load_csv,
    load_result,
    normalize_columns,
    result_to_json,
    save_csv,
    save_result,
)

from conftest import DEMO7_VALUES


class TestGenerate:
    def test_independent_uncorrelated(self):
        D = generate(GenSpec("independent", 10_000, 2, seed=3))
        rho = np.corrcoef(D.values[:, 0], D.values[:, 1])[0, 1]
        assert abs(rho) < 0.05

    def test_correlated_positive(self):
        D = generate(GenSpec("correlated", 10_000, 2, seed=3))
        rho = np.corrcoef(D.values[:, 0], D.values[:, 1])[0, 1]
        assert rho > 0.5

    def test_anti_correlated_negative(self):
        D = generate(GenSpec("anti-correlated", 10_000, 2, seed=3))
        rho = np.corrcoef(D.values[:, 0], D.values[:, 1])[0, 1]
        assert rho < -0.3

    @pytest.mark.parametrize("family", ["independent", "correlated", "anti-correlated"])
    def test_correlation_signs_across_seeds(self, family):
        sign = {"independent": 0, "correlated": 1, "anti-correlated": -1}[family]
        for seed in range(5):
            D = generate(GenSpec(family, 4_000, 2, seed=seed))
            rho = np.corrcoef(D.values[:, 0], D.values[:, 1])[0, 1]
            if sign == 0:
                assert abs(rho) < 0.08
            else:
                assert np.sign(rho) == sign

    def test_single_tuple_all_ones(self):
        D = generate(GenSpec("independent", 1, 4, seed=0))
        assert np.array_equal(D.values, np.ones((1, 4)))

    def test_deterministic(self):
        a = generate(GenSpec("anti-correlated", 100, 3, seed=11))
        b = generate(GenSpec("anti-correlated", 100, 3, seed=11))
        assert np.array_equal(a.values, b.values)

    def test_normalized_output(self):
        D = generate(GenSpec("correlated", 500, 4, seed=7))
        assert D.normalized
        assert D.values.min() >= 0 and D.values.max() <= 1
        assert np.allclose(D.values.max(axis=0), 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GenSpec("weird", 10, 2)
        with pytest.raises(ValueError):
            GenSpec("independent", 0, 2)
        with pytest.raises(ValueError):
            GenSpec("independent", 10, 2, correlation_strength=0.0)


class TestNormalizeColumns:
    def test_minmax(self):
        out = normalize_columns(np.array([[1.0, 5.0], [3.0, 5.0], [2.0, 5.0]]))
        assert np.allclose(out[:, 0], [0.0, 1.0, 0.5])
        assert np.array_equal(out[:, 1], [1.0, 1.0, 1.0])  # constant column


class TestLoadCsv:
    def _write_demo(self, path):
        save_csv(rr.Dataset(DEMO7_VALUES), path)

    def test_demo_roundtrip(self, tmp_path):
        p = tmp_path / "demo.csv"
        self._write_demo(p)
        D = load_csv(p)
        assert D.n == 7
        assert D.basis_indices == (1, 7)
        assert np.array_equal(D.values, DEMO7_VALUES)

    def test_pre_normalized_bit_exact(self, tmp_path):
        p = tmp_path / "demo.csv"
        self._write_demo(p)
        D = load_csv(p, normalize=False)
        assert np.array_equal(D.values, DEMO7_VALUES)

    def test_constant_column_boundary(self, tmp_path):
        p = tmp_path / "const.csv"
        p.write_text("a,b\n0.2,3\n0.8,3\n", encoding="utf-8")
        D = load_csv(p)
        assert np.array_equal(D.values[:, 1], [1.0, 1.0])
        assert D.basis_indices == (1, 2) or 1 in D.basis_indices

    def test_negate_columns(self, tmp_path):
        p = tmp_path / "neg.csv"
        p.write_text("price,quality\n10,0.2\n30,1\n20,0.6\n", encoding="utf-8")
        D = load_csv(p, negate_columns=["price"])
        # cheapest row becomes the boundary tuple of the price column
        assert D.values[0, 0] == 1.0 and D.values[1, 0] == 0.0

    @pytest.mark.parametrize("spec", ["cost", "2"])
    def test_negate_column_not_in_header(self, tmp_path, spec):
        p = tmp_path / "neg.csv"
        p.write_text("price,quality\n10,0.2\n30,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"neg.csv: negate column '{spec}' is not in"):
            load_csv(p, negate_columns=[spec])

    @pytest.mark.parametrize("specs", [["price", "price"], ["price", 1]])
    def test_negate_column_given_twice(self, tmp_path, specs):
        # a second mention used to flip the column back
        p = tmp_path / "neg.csv"
        p.write_text("price,quality\n10,0.2\n30,1\n20,0.6\n", encoding="utf-8")
        with pytest.raises(ValueError, match="neg.csv: negate column 'price' is given more"):
            load_csv(p, negate_columns=specs)

    def test_negate_name_the_header_repeats(self, tmp_path):
        # a name would flip only the first of the two columns; a position
        # still picks one of them
        p = tmp_path / "dup.csv"
        p.write_text("a,a\n1,4\n2,5\n3,6\n", encoding="utf-8")
        with pytest.raises(ValueError, match="dup.csv: negate column 'a' is ambiguous: 2 "):
            load_csv(p, negate_columns=["a"])
        D = load_csv(p, negate_columns=[2])
        assert D.values.tolist() == [[0, 1], [0.5, 0.5], [1, 0]]

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        # spreadsheet exports often start with a UTF-8 byte-order mark
        text = "A1,A2\n10,0.2\n30,1\n20,0.6\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        D = load_csv(marked, negate_columns=["A1"])
        assert D.attribute_names == ("A1", "A2")
        assert np.array_equal(D.values, load_csv(plain, negate_columns=["A1"]).values)

    @pytest.mark.parametrize("text", ["a\n1\n2\n", "a\n", "\n1,2\n"],
                             ids=["one-column", "one-column-no-rows", "blank-header"])
    def test_header_needs_two_columns(self, tmp_path, text):
        p = tmp_path / "narrow.csv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="narrow.csv: need at least 2 columns, header has"):
            load_csv(p)

    def test_ragged_row_diagnostic(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="ragged row 2"):
            load_csv(p)

    def test_non_numeric_diagnostic(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n3,x\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 2, column 2"):
            load_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty"):
            load_csv(p)

    def test_header_only(self, tmp_path):
        p = tmp_path / "hdr.csv"
        p.write_text("a,b\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(p)


class TestCsvRoundTrip:
    def test_generated_identity(self, tmp_path):
        D = generate(GenSpec("independent", 64, 3, seed=5))
        p = tmp_path / "gen.csv"
        save_csv(D, p)
        back = load_csv(p, normalize=False)
        assert np.abs(back.values - D.values).max() < 1e-12
        assert back.attribute_names == D.attribute_names

    def test_csv_text_stable(self):
        D = generate(GenSpec("independent", 5, 2, seed=6))
        assert csv_text(D) == csv_text(D)


class TestResultSerialization:
    def test_roundtrip_all_fields(self, tmp_path):
        res = rr.RegretResult((2, 5), 2, 4, {"algo": "2d", "r": 2})
        p = tmp_path / "res.json"
        save_result(res, p)
        back = load_result(p)
        assert back.selected_indices == res.selected_indices
        assert back.size == res.size
        assert back.rank_regret == res.rank_regret
        assert back.solver_params == res.solver_params

    @pytest.mark.parametrize("text, missing", [
        ("[1, 2]", "'indices', 'size', 'rank_regret'"),
        ('{"size": 1, "rank_regret": 2}', "'indices'"),
    ], ids=["list", "no-indices"])
    def test_malformed_file_is_a_value_error(self, tmp_path, text, missing):
        p = tmp_path / "res.json"
        p.write_text(text)
        with pytest.raises(ValueError, match=f"res.json: .*missing keys \\[{missing}\\]"):
            load_result(p)

    def test_same_result_same_bytes(self, tmp_path):
        res = rr.RegretResult((1,), 1, 2, {"algo": "2d"})
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_result(res, p1)
        save_result(res, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_absent_fields_omitted(self):
        res = rr.RegretResult((1,), 1, 2, {})
        data = json.loads(result_to_json(res))
        assert "estimated_rank_regret" not in data
        assert "samples" not in data
        assert "seed" not in data
        assert set(data) == {"indices", "size", "rank_regret", "params"}

    def test_keys_sorted(self):
        res = rr.RegretResult((1,), 1, 2, {"z": 1, "a": 2})
        text = result_to_json(res)
        assert text.index('"indices"') < text.index('"params"')
        assert text.index('"a"') < text.index('"z"')
