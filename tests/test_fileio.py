"""Model file parsing/emission and result-row CSV rendering."""

import numpy as np
import pytest

from gmbe import (
    ResultRow,
    brute_z,
    emit_csv,
    emit_uai,
    gen_ising_grid,
    parse_uai,
    read_uai_file,
)
from gmbe.errors import NegativeValues, ParseError, UnsupportedPreamble
from gmbe.factors import Factor
from gmbe.graphs import FactorGraph

from conftest import random_forney_graph

MINIMAL = "MARKOV\n1\n2\n1\n1 0\n\n2\n0.3 0.7\n"


class TestParseUai:
    def test_minimal_model(self):
        g = parse_uai(MINIMAL)
        assert g.cards == (2,)
        assert g.num_factors == 1
        assert g.factors[0].scope == (0,)
        np.testing.assert_allclose(g.factors[0].linear(), [0.3, 0.7],
                                   rtol=1e-15)

    def test_last_scope_variable_fastest(self):
        text = ("MARKOV\n2\n2 3\n1\n2 0 1\n\n6\n"
                "1 2 3 4 5 6\n")
        g = parse_uai(text)
        f = g.factors[0]
        assert f.scope == (0, 1)
        np.testing.assert_allclose(f.linear(),
                                   [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
                                   rtol=1e-15)

    def test_scope_order_respected(self):
        # declaring the scope reversed flips the table layout
        text = ("MARKOV\n2\n2 3\n1\n2 1 0\n\n6\n"
                "1 2 3 4 5 6\n")
        f = parse_uai(text).factors[0]
        assert f.scope == (1, 0)
        np.testing.assert_allclose(f.linear(),
                                   [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
                                   rtol=1e-15)

    def test_zero_entries_allowed(self):
        g = parse_uai("MARKOV\n1\n2\n1\n1 0\n\n2\n0 1\n")
        assert g.factors[0].sign[0] == 0.0

    def test_bayes_refused(self):
        with pytest.raises(UnsupportedPreamble):
            parse_uai("BAYES\n1\n2\n1\n1 0\n\n2\n0.3 0.7\n")

    def test_unknown_preamble_located(self):
        with pytest.raises(ParseError) as err:
            parse_uai("MARKO\n1\n2\n")
        assert err.value.line == 1
        assert err.value.token == "MARKO"

    def test_truncated_file_located(self):
        with pytest.raises(ParseError) as err:
            parse_uai("MARKOV\n1\n2\n1\n1 0\n\n2\n0.3\n")
        assert err.value.token == "<end of file>"
        assert err.value.line == 8

    def test_non_integer_count(self):
        with pytest.raises(ParseError) as err:
            parse_uai("MARKOV\nx\n")
        assert (err.value.line, err.value.token) == (2, "x")

    def test_variable_index_out_of_range(self):
        with pytest.raises(ParseError) as err:
            parse_uai("MARKOV\n1\n2\n1\n1 1\n\n2\n0.3 0.7\n")
        assert err.value.line == 5

    def test_duplicate_variable_in_scope(self):
        with pytest.raises(ParseError):
            parse_uai("MARKOV\n2\n2 2\n1\n2 0 0\n\n4\n1 2 3 4\n")

    def test_wrong_table_size(self):
        with pytest.raises(ParseError) as err:
            parse_uai("MARKOV\n1\n2\n1\n1 0\n\n3\n0.3 0.7 0.1\n")
        assert "table size 2" in err.value.expected

    def test_table_size_past_int64(self):
        # 2**64 entries wrap to 0 in int64, so a declared size of 0
        # must not pass the count check
        text = ("MARKOV\n64\n" + " ".join(["2"] * 64) + "\n1\n64 "
                + " ".join(map(str, range(64))) + "\n\n0\n")
        with pytest.raises(ParseError) as err:
            parse_uai(text)
        assert err.value.expected == f"table size {2 ** 64}"

    def test_huge_declared_table_ends_at_end_of_file(self):
        # 2**40 entries, declared correctly but followed by one value:
        # the file ends long before anything that size is allocated
        text = ("MARKOV\n40\n" + " ".join(["2"] * 40) + "\n1\n40 "
                + " ".join(map(str, range(40))) + f"\n\n{2 ** 40}\n1.0\n")
        with pytest.raises(ParseError) as err:
            parse_uai(text)
        assert err.value.token == "<end of file>"

    def test_negative_value_located(self):
        with pytest.raises(ParseError) as err:
            parse_uai("MARKOV\n1\n2\n1\n1 0\n\n2\n0.3 -0.7\n")
        assert err.value.line == 8
        assert "nonnegative" in err.value.expected

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_uai(MINIMAL + "extra\n")
        assert err.value.token == "extra"

    def test_non_finite_value_rejected(self):
        with pytest.raises(ParseError):
            parse_uai("MARKOV\n1\n2\n1\n1 0\n\n2\n0.3 inf\n")


class TestEmitUai:
    def test_canonical_layout(self):
        g = FactorGraph(
            (2,),
            (Factor.from_linear((0,), (2,), np.array([0.25, 0.5])),),
        )
        assert emit_uai(g) == "MARKOV\n1\n2\n1\n1 0\n\n2\n0.25 0.5\n"

    def test_negative_entries_refused(self):
        g = FactorGraph(
            (2,),
            (Factor.from_linear((0,), (2,), np.array([0.25, -0.5])),),
        )
        with pytest.raises(NegativeValues) as err:
            emit_uai(g)
        assert "(1,)" in str(err.value)

    def test_deterministic(self):
        g = gen_ising_grid(3, 3, t=1.0, seed=4)
        assert emit_uai(g) == emit_uai(g)

    @pytest.mark.parametrize("seed", range(3))
    def test_roundtrip_grid(self, seed):
        g = gen_ising_grid(3, 3, t=1.2, seed=seed)
        back = parse_uai(emit_uai(g))
        assert back.cards == g.cards
        assert tuple(f.scope for f in back.factors) == tuple(
            f.scope for f in g.factors)
        for fa, fb in zip(g.factors, back.factors):
            np.testing.assert_allclose(fb.linear(), fa.linear(),
                                       rtol=1e-12)
        assert brute_z(back).logabs == pytest.approx(
            brute_z(g).logabs, rel=1e-12)

    def test_fixed_point_after_one_cycle(self):
        g = random_forney_graph(6, t=1.0, seed=0)
        once = parse_uai(emit_uai(g))
        twice = parse_uai(emit_uai(once))
        assert twice.cards == once.cards
        for fa, fb in zip(once.factors, twice.factors):
            assert fb.scope == fa.scope
            np.testing.assert_allclose(fb.linear(), fa.linear(),
                                       rtol=1e-12)


class TestReadUaiFile:
    def test_reads_model(self, tmp_path):
        p = tmp_path / "m.uai"
        p.write_text(MINIMAL)
        g = read_uai_file(p)
        assert g.cards == (2,)

    def test_evidence_sibling_warning(self, tmp_path, capsys):
        p = tmp_path / "m.uai"
        p.write_text(MINIMAL)
        (tmp_path / "m.uai.evid").write_text("0\n")
        read_uai_file(p)
        err = capsys.readouterr().err
        assert "ignoring evidence file" in err
        assert "m.uai.evid" in err

    def test_no_warning_without_evidence(self, tmp_path, capsys):
        p = tmp_path / "m.uai"
        p.write_text(MINIMAL)
        read_uai_file(p)
        assert capsys.readouterr().err == ""


class TestEmitCsv:
    HEADER = ("model,method,ibound,t,seed,direction,log_bound,"
              "ref_log_z,metric,wall_time,status")

    def test_empty(self):
        assert emit_csv([]) == self.HEADER + "\r\n"

    def test_single_row_rendering(self):
        row = ResultRow(model="grid", method="wmbe", ibound=4, t=0.5,
                        seed=7, direction="upper", log_bound=1.25,
                        ref_log_z=1.0, metric=0.25)
        got = emit_csv([row])
        lines = got.split("\r\n")
        assert lines[0] == self.HEADER
        assert lines[1] == "grid,wmbe,4,0.5,7,upper,1.25,1,0.25,,ok"
        assert lines[2] == ""

    def test_none_cells_empty(self):
        row = ResultRow(model="m", method="be", ibound=0, t=0.5, seed=0,
                        direction="exact", log_bound=None,
                        status="error:WidthExceeded")
        line = emit_csv([row]).split("\r\n")[1]
        assert line == "m,be,0,0.5,0,exact,,,,,error:WidthExceeded"

    def test_seventeen_digit_floats(self):
        row = ResultRow(model="m", method="wmbe", ibound=2, t=1.0,
                        seed=0, direction="upper",
                        log_bound=np.pi)
        line = emit_csv([row]).split("\r\n")[1]
        assert "3.1415926535897931" in line

    def test_crlf_terminators_only(self):
        row = ResultRow(model="m", method="wmbe", ibound=2, t=1.0,
                        seed=0, direction="upper", log_bound=0.5)
        text = emit_csv([row])
        assert "\r\n" in text
        assert text.replace("\r\n", "").count("\n") == 0
