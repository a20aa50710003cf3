"""End-to-end tests of the command-line surface: formats and exit codes."""

import json
from fractions import Fraction

import pytest

from anticirculant.cli import main, parse_int_list, parse_number_list


def write_doc(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


@pytest.fixture
def psd_doc(tmp_path):
    return write_doc(tmp_path, "psd.json", {"m": 4, "n": 4, "r": 2, "seed": [1, 0.5]})


@pytest.fixture
def notpsd_doc(tmp_path):
    return write_doc(tmp_path, "neg.json", {"m": 4, "n": 4, "r": 2, "seed": [1, 1.2]})


@pytest.fixture
def uncovered_doc(tmp_path):
    return write_doc(
        tmp_path, "open.json", {"m": 10, "n": 5, "r": 5, "seed": [1, 1, 1, 1, 1]}
    )


@pytest.fixture
def genvec_doc(tmp_path):
    return write_doc(tmp_path, "gv.json", {"m": 2, "n": 2, "genvec": [1, 0, 1]})


class TestNumberParsing:
    def test_plain_and_wrapped_negatives(self):
        assert parse_number_list("1,-1,(-2)") == [1, -1, -2]

    def test_typographic_minus(self):
        assert parse_number_list("1,−2") == [1, -2]

    def test_fractions_stay_exact(self):
        out = parse_number_list("2/3,1")
        assert out == [Fraction(2, 3), 1]

    def test_decimals_default_to_float(self):
        out = parse_number_list("0.5,2")
        assert out == [0.5, 2]
        assert isinstance(out[0], float)

    def test_exact_decimal_mode(self):
        out = parse_number_list("0.1", exact_decimals=True)
        assert out == [Fraction(1, 10)]

    def test_bad_entry_raises(self):
        from anticirculant.cli import CliInputError

        with pytest.raises(CliInputError):
            parse_number_list("1,apple")
        with pytest.raises(CliInputError):
            parse_number_list("1,,2")
        with pytest.raises(CliInputError):
            parse_int_list("1,0.5")


class TestClassifyCommand:
    def test_psd_exit_and_fields(self, psd_doc, capsys):
        assert main(["classify", psd_doc]) == 0
        out = capsys.readouterr().out
        assert "status: PSD" in out
        assert "t=0.75" in out

    def test_notpsd_exit_and_witness(self, notpsd_doc, capsys):
        assert main(["classify", notpsd_doc]) == 1
        out = capsys.readouterr().out
        assert "status: NotPSD" in out
        assert "witness: 1, -1, 0, 0" in out
        assert "-1.59" in out

    def test_uncovered_exit_and_note(self, uncovered_doc, capsys):
        assert main(["classify", uncovered_doc]) == 4
        out = capsys.readouterr().out
        assert "status: Uncovered" in out
        assert "not a certificate" in out

    def test_json_output(self, psd_doc, capsys):
        assert main(["classify", psd_doc, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "PSD"
        assert payload["certificate"]["t"] == 0.75

    def test_verify_round_trip(self, psd_doc, notpsd_doc, capsys):
        assert main(["classify", psd_doc, "--verify"]) == 0
        assert "status reproduced" in capsys.readouterr().out
        assert main(["classify", notpsd_doc, "--verify"]) == 1
        assert "status reproduced" in capsys.readouterr().out

    @pytest.mark.parametrize("payload", [
        {"m": 30, "n": 5, "r": 2, "seed": [1.0, -0.3]},
        {"m": 12, "n": 8, "r": 3, "seed": [2, 2, 2]},
    ])
    def test_verify_at_high_order(self, tmp_path, capsys, payload):
        # point sampling cannot resolve these identities in float64
        doc = write_doc(tmp_path, "high.json", payload)
        assert main(["classify", doc, "--verify"]) == 0
        assert "status reproduced" in capsys.readouterr().out

    def test_verify_near_float_max(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "big.json", {"m": 4, "n": 4, "r": 2, "seed": [1e308, -1e308]})
        assert main(["classify", doc, "--verify", "--json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["verified"] is True
        assert payload["strong_hankel"]["matrix_eigen_floor"] == 0.0
        assert captured.err == ""

    def test_no_eigensolver_on_verdict_paths(self, psd_doc, capsys, monkeypatch):
        from anticirculant import classifier, oracle

        def forbidden(*args, **kwargs):
            raise AssertionError("no eigensolver on this path")

        monkeypatch.setattr(oracle, "matrix_psd", forbidden)
        monkeypatch.setattr(classifier, "hankel_matrix", forbidden)
        assert main(["classify", psd_doc, "--verify"]) == 0
        assert main(["certify", psd_doc]) == 0

    def test_genvec_document(self, genvec_doc, capsys):
        code = main(["classify", genvec_doc])
        out = capsys.readouterr().out
        assert code == 4
        assert "no circulant index" in out

    def test_genvec_witness_inside_margin_is_noted(self, tmp_path, capsys):
        # e_1 evaluates to -1e-10, inside the -1e-9 * max|v| verification margin
        doc = write_doc(tmp_path, "gv.json", {"m": 2, "n": 2, "genvec": [-1e-10, 0, 1]})
        assert main(["classify", doc, "--verify"]) == 1
        out = capsys.readouterr().out
        assert "witness_value: -1e-10" in out
        assert "note: witness value clears zero but not the verification margin" in out
        assert "status reproduced" in out

    def test_tolerance_flag_loosens_equality(self, tmp_path, capsys):
        doc = write_doc(
            tmp_path, "near.json", {"m": 4, "n": 3, "r": 3, "seed": [1.0, 1.4, 1.0]}
        )
        assert main(["classify", doc]) == 1
        capsys.readouterr()
        assert main(["classify", doc, "--tolerance", "0.5"]) == 0
        assert main(["classify", doc, "--tolerance", "0.5", "--verify"]) == 0

    @pytest.mark.parametrize("payload", [
        {"m": 6, "n": 5, "r": 4, "seed": [1, -1.09, 1, -1.18]},
        {"m": 4, "n": 4, "r": 4, "seed": [1, -1.09, 1, -1.18]},
    ])
    def test_moderate_tolerance_in_chained_cases(self, tmp_path, capsys, payload):
        # the odd seeds miss the certificate by nearly twice the tolerance
        doc = write_doc(tmp_path, "near.json", payload)
        assert main(["classify", doc, "--tolerance", "0.1", "--verify"]) == 0
        assert "status reproduced" in capsys.readouterr().out
        assert main(["certify", doc, "--tolerance", "0.1"]) == 0

    def test_tolerance_field_in_document(self, tmp_path, capsys):
        doc = write_doc(
            tmp_path,
            "near.json",
            {"m": 4, "n": 3, "r": 3, "seed": [1.0, 1.4, 1.0], "tolerance": 0.5},
        )
        assert main(["classify", doc]) == 0

    def test_zero_tolerance_field_matches_flag(self, tmp_path, capsys):
        seed = {"m": 4, "n": 4, "r": 2, "seed": [1.0, 0.5]}
        field = write_doc(tmp_path, "field.json", {**seed, "tolerance": 0})
        flag = write_doc(tmp_path, "flag.json", seed)
        for extra in ([], ["--json"]):
            assert main(["classify", field, *extra]) == 0
            from_field = capsys.readouterr().out
            assert main(["classify", flag, "--tolerance", "0", *extra]) == 0
            assert capsys.readouterr().out == from_field
        assert json.loads(from_field)["tolerance"] == 0.0

    def test_odd_order_is_input_error(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "odd.json", {"m": 3, "n": 3, "r": 1, "seed": [1]})
        assert main(["classify", doc]) == 2
        assert "odd order" in capsys.readouterr().err


class TestInternalError:
    def test_exits_five_with_one_line(self, psd_doc, capsys, monkeypatch):
        from anticirculant import classifier

        def broken(*args, **kwargs):
            raise RuntimeError("simulated fault\nsecond line")

        monkeypatch.setattr(classifier, "classify", broken)
        assert main(["classify", psd_doc]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: internal: RuntimeError: simulated fault second line\n"


class TestNonFiniteInput:
    # JSON has no NaN, but Python's json module reads the NaN and Infinity tokens
    @pytest.mark.parametrize(
        "payload",
        [
            '{"m": 4, "n": 4, "r": 2, "seed": [NaN, 1]}',
            '{"m": 8, "n": 4, "r": 4, "seed": [NaN, 1, 1, 1]}',
            '{"m": 4, "n": 4, "r": 2, "seed": [Infinity, 1]}',
            '{"m": 2, "n": 2, "genvec": [1, -Infinity, 1]}',
            # exact, but too large for float64
            pytest.param('{"m": 4, "n": 4, "r": 2, "seed": [1%s, 1]}' % ("0" * 400), id="seed-1e400"),
            pytest.param('{"m": 2, "n": 2, "genvec": [1%s, 0, 1]}' % ("0" * 400), id="genvec-1e400"),
        ],
    )
    def test_is_an_input_error(self, tmp_path, capsys, payload):
        doc = write_doc(tmp_path, "bad.json", payload)
        assert main(["classify", doc]) == 2
        assert "finite" in capsys.readouterr().err


class TestDocumentErrors:
    def test_missing_file(self, capsys):
        assert main(["classify", "/nonexistent/never.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "broken.json", '{"m": 4,\n "n": }')
        assert main(["classify", doc]) == 2
        err = capsys.readouterr().err
        assert "broken.json:2:" in err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        doc = write_doc(
            tmp_path, "extra.json", {"m": 4, "n": 3, "r": 1, "seed": [1], "spin": 2}
        )
        assert main(["classify", doc]) == 2
        assert "unknown field" in capsys.readouterr().err

    def test_both_forms_rejected(self, tmp_path, capsys):
        doc = write_doc(
            tmp_path,
            "both.json",
            {"m": 2, "n": 2, "r": 1, "seed": [1], "genvec": [1, 1, 1]},
        )
        assert main(["classify", doc]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_neither_form_rejected(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "none.json", {"m": 2, "n": 2})
        assert main(["classify", doc]) == 2

    def test_seed_without_r_rejected(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "seedless.json", {"m": 2, "n": 2, "seed": [1]})
        assert main(["classify", doc]) == 2

    def test_bad_shapes_rejected(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "short.json", {"m": 4, "n": 3, "genvec": [1, 2]})
        assert main(["classify", doc]) == 2
        assert "9 entries" in capsys.readouterr().err

    def test_non_numeric_seed_rejected(self, tmp_path, capsys):
        doc = write_doc(
            tmp_path, "words.json", {"m": 4, "n": 3, "r": 1, "seed": ["one"]}
        )
        assert main(["classify", doc]) == 2

    def test_bad_tolerance_rejected(self, tmp_path, capsys):
        for tolerance in (-1, True, "x", 10**400):
            doc = write_doc(
                tmp_path,
                "tol.json",
                {"m": 4, "n": 3, "r": 1, "seed": [1], "tolerance": tolerance},
            )
            assert main(["classify", doc]) == 2
            assert "tolerance" in capsys.readouterr().err

    def test_nan_tolerance_field_rejected(self, tmp_path, capsys):
        doc = write_doc(
            tmp_path, "tol.json", '{"m": 4, "n": 4, "r": 2, "seed": [1.0, 1.2], "tolerance": NaN}'
        )
        assert main(["classify", doc]) == 2
        assert "tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["inf", "nan", "-1"])
    def test_bad_tolerance_flag_rejected(self, notpsd_doc, capsys, flag):
        assert main(["classify", notpsd_doc, "--verify", f"--tolerance={flag}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance" in captured.err


class TestEvalCommand:
    def test_square_form(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "sq.json", {"m": 2, "n": 2, "genvec": [1, 1, 1]})
        assert main(["eval", doc, "1,1"]) == 0
        assert "f(x) = 4" in capsys.readouterr().out

    def test_hand_enumerated_value(self, genvec_doc, capsys):
        assert main(["eval", genvec_doc, "1,-1", "--naive"]) == 0
        out = capsys.readouterr().out
        assert "f(x) = 2" in out
        assert "f_naive(x) = 2" in out

    def test_alternating_zero(self, tmp_path, capsys):
        doc = write_doc(
            tmp_path, "c.json", {"m": 6, "n": 3, "r": 3, "seed": [1, 1, 1]}
        )
        assert main(["eval", doc, "1,−1,0"]) == 0
        assert "f(x) = 0" in capsys.readouterr().out

    def test_gradient_flag(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "sq.json", {"m": 2, "n": 2, "genvec": [1, 1, 1]})
        assert main(["eval", doc, "1,1", "--gradient"]) == 0
        assert "gradient: 4, 4" in capsys.readouterr().out

    def test_dimension_mismatch(self, genvec_doc, capsys):
        assert main(["eval", genvec_doc, "1,2,3"]) == 2

    def test_naive_cap_respected(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "big.json", {"m": 4, "n": 3, "r": 1, "seed": [1]})
        assert main(["eval", doc, "1,1,1", "--naive", "--cap", "10"]) == 2

    def test_json_output(self, genvec_doc, capsys):
        assert main(["eval", genvec_doc, "1,-1", "--json", "--naive"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"f": 2.0, "f_naive": 2.0}

    def test_exact_fraction_coordinates(self, genvec_doc, capsys):
        assert main(["eval", genvec_doc, "1/2,1/2"]) == 0
        assert "f(x) = 1/2" in capsys.readouterr().out


class TestSumsAndSignFacts:
    def test_alternating_sums(self, capsys):
        assert main(["sums", "6", "3", "1,-1"]) == 0
        out = capsys.readouterr().out
        assert "S_0 = -18" in out
        assert "S_1 = 9" in out
        assert "S_2 = 9" in out

    def test_order_twelve(self, capsys):
        assert main(["sums", "12", "3", "1,−1"]) == 0
        assert "S_0 = 486" in capsys.readouterr().out

    def test_json_sums(self, capsys):
        assert main(["sums", "4", "2", "1,1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sums"] == [8, 8]
        assert payload["total"] == 16

    def test_small_orders_rejected(self, capsys):
        assert main(["sums", "1", "3", "1,-1"]) == 2
        assert main(["sums", "6", "1", "1,-1"]) == 2

    def test_float_pattern_rejected(self, capsys):
        assert main(["sums", "6", "3", "1,0.5"]) == 2

    def test_signfacts_all_pass(self, capsys):
        assert main(["signfacts"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 20

    def test_signfacts_json(self, capsys):
        assert main(["signfacts", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert all(row["passed"] for row in rows)


class TestCertifyCommand:
    def test_psd_certificates_verified(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "c.json", {"m": 4, "n": 3, "r": 1, "seed": [2]})
        assert main(["certify", doc]) == 0
        out = capsys.readouterr().out
        assert "power-sum" in out and "PASS" in out
        assert "strong-hankel" in out

    def test_sample_is_a_diagnostic(self, tmp_path, capsys):
        # the sampled error at this order is far above 1e-9; the identity holds
        doc = write_doc(tmp_path, "c.json", {"m": 30, "n": 5, "r": 2, "seed": [1.0, -0.3]})
        assert main(["certify", doc, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["power_sum"]["max_rel_err"] > 1e-9
        assert payload["power_sum"]["passed"] is True

    def test_not_psd_has_no_certificate(self, notpsd_doc, capsys):
        assert main(["certify", notpsd_doc]) == 1
        captured = capsys.readouterr()
        assert "no certificate" in captured.err
        assert "status: NotPSD" in captured.out

    def test_uncovered_exit(self, uncovered_doc, capsys):
        assert main(["certify", uncovered_doc]) == 4

    def test_json_report(self, psd_doc, capsys):
        assert main(["certify", psd_doc, "--json", "--points", "100"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["power_sum"]["passed"] is True
        assert payload["power_sum"]["points"] == 100
        assert payload["strong_hankel"]["passed"] is True


class TestOracleCommand:
    def test_deterministic_output(self, notpsd_doc, capsys):
        assert main(["oracle", notpsd_doc, "--starts", "8"]) == 0
        first = capsys.readouterr().out
        assert main(["oracle", notpsd_doc, "--starts", "8"]) == 0
        assert capsys.readouterr().out == first
        assert "rng_seed=0" in first

    def test_json_fields(self, notpsd_doc, capsys):
        assert main(["oracle", notpsd_doc, "--starts", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["min_value"] <= -0.4
        assert payload["starts"] == 4

    def test_odd_order_rejected(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "odd.json", {"m": 3, "n": 3, "genvec": [1] * 7})
        assert main(["oracle", doc]) == 2


class TestTheorem1Command:
    def test_constant_sequence(self, capsys):
        assert main(["theorem1", "2", "5,5,5"]) == 0
        out = capsys.readouterr().out
        assert "D = (0, 0, 0)" in out
        assert "ForcedConstant" in out

    def test_mixed_signs(self, capsys):
        assert main(["theorem1", "2", "1,2,3"]) == 0
        out = capsys.readouterr().out
        assert "D = (0, -3, 3)" in out
        assert "MixedSigns" in out

    def test_exact_decimal_entries(self, capsys):
        assert main(["theorem1", "1", "0.1,0.2"]) == 0
        out = capsys.readouterr().out
        assert "D = (-1/10, 1/10)" in out

    def test_json_output(self, capsys):
        assert main(["theorem1", "3", "1,0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sums"] == ["4", "-4"]
        assert payload["verdict"] == "MixedSigns"

    def test_single_entry_rejected(self, capsys):
        assert main(["theorem1", "2", "5"]) == 2

    def test_zero_order_rejected(self, capsys):
        assert main(["theorem1", "0", "1,2"]) == 2


class TestHankelMatrixCommand:
    def test_all_ones_summary(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "ones.json", {"m": 4, "n": 3, "r": 1, "seed": [1]})
        assert main(["hankelmatrix", doc]) == 0
        out = capsys.readouterr().out
        assert "size: 5 x 5" in out
        assert "psd: yes" in out

    def test_json_matrix(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "ones.json", {"m": 2, "n": 2, "genvec": [1, 1, 1]})
        assert main(["hankelmatrix", doc, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matrix"] == [[1.0, 1.0], [1.0, 1.0]]
        assert payload["psd"] is True

    def test_indefinite_matrix(self, notpsd_doc, capsys):
        assert main(["hankelmatrix", notpsd_doc]) == 0
        assert "psd: no" in capsys.readouterr().out

    def test_odd_order_rejected(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "odd.json", {"m": 3, "n": 3, "genvec": [1] * 7})
        assert main(["hankelmatrix", doc]) == 2
