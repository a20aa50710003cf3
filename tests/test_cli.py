"""End-to-end tests of the command-line surface: formats and exit codes."""

import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import anticirculant
from anticirculant import cli
from anticirculant.cli import main, parse_int_list, parse_number_list
from anticirculant import polyeval
from anticirculant.polyeval import eval_exact
from anticirculant.tensor import CirculantSpec, GeneratingVector, expand


def _no_constant(name):
    raise AssertionError(f"output is not standard JSON: it holds {name}")


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

    @pytest.mark.parametrize("doc", ["psd_doc", "notpsd_doc", "uncovered_doc"])
    def test_zero_starts_is_an_input_error(self, doc, request, capsys):
        assert main(["classify", request.getfixturevalue(doc), "--starts", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: starts must be >= 1, got 0\n"

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

    @pytest.mark.parametrize("seed", [[1e-320, -5e-324], [5e-324, -0.0]])
    def test_verify_at_subnormal_scale(self, tmp_path, capsys, seed):
        m, n = (2, 2) if seed[0] == 1e-320 else (8, 3)
        doc = write_doc(tmp_path, "tiny.json", {"m": m, "n": n, "r": 2, "seed": seed})
        assert main(["classify", doc, "--verify", "--json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["status"] == "PSD"
        assert payload["verified"] is True
        assert captured.err == ""

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

    def test_verify_is_the_only_certificate_command(self, psd_doc, capsys):
        # there is no sampled `certify` command: argparse rejects it, exit 2
        with pytest.raises(SystemExit) as exc:
            main(["certify", psd_doc])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "certify" in err

    def test_genvec_document(self, genvec_doc, capsys):
        code = main(["classify", genvec_doc])
        out = capsys.readouterr().out
        assert code == 4
        assert "no circulant index" in out

    def test_genvec_witness_inside_margin_is_exact(self, tmp_path, capsys):
        # e_1 evaluates to -1e-10, inside the -1e-9 * max|v| margin of the
        # float pass; the exact pass finds it negative, so no note is needed
        doc = write_doc(tmp_path, "gv.json", {"m": 2, "n": 2, "genvec": [-1e-10, 0, 1]})
        assert main(["classify", doc, "--verify"]) == 1
        out = capsys.readouterr().out
        assert "witness_value: -1e-10" in out
        assert "note:" not in out
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

    def test_matrix_case_witness_below_the_families(self, tmp_path, capsys):
        # even-gcd-2 at m = 2: the seed misses the rule by about 2e-12, which
        # no canonical candidate up to alpha = 2**30 exposes; f along
        # alpha(q=2) has a negative leading coefficient, and is negative at
        # alpha = 2**38
        seed = [0.6372000159352453, -0.03720001593424534,
                0.6372000159352453, -0.03720001593224533]
        doc = write_doc(tmp_path, "m2.json", {"m": 2, "n": 5, "r": 4, "seed": seed})
        assert main(["classify", doc, "--verify", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "NotPSD"
        assert payload["witness_label"] == "alpha(q=2, alpha=2**38)"
        gen = expand(CirculantSpec(2, 5, 4, tuple(seed)))
        exact = eval_exact(gen, tuple(payload["witness"]))
        assert exact < 0 and payload["witness_value"] == float(exact)
        assert payload["notes"] == []
        assert payload["verified"] is True

    def test_alpha_past_float64_is_an_exact_int(self, tmp_path, capsys):
        # at m = 2 the alpha that exposes a 5e-324 gap is past float64: the
        # witness holds it as an exact JSON int, and the re-check reads it
        seed = [1.0, 0.0, 1.0, 5e-324]
        doc = write_doc(tmp_path, "sub.json", {"m": 2, "n": 5, "r": 4, "seed": seed,
                                               "tolerance": 0})
        assert main(["classify", doc, "--verify", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert (payload["status"], payload["verified"]) == ("NotPSD", True)
        assert payload["witness_label"] == "alpha(q=2, alpha=2**1074)"
        assert payload["witness"] == [2**1074, 1.0, -(2**1074), 0.0, 0.0]
        assert type(payload["witness"][0]) is int
        exact = eval_exact(expand(CirculantSpec(2, 5, 4, tuple(seed))), tuple(payload["witness"]))
        assert exact < 0 and payload["witness_value"] == float(exact)
        assert main(["classify", doc]) == 1
        assert f"witness: {2**1074}, 1, {-(2**1074)}, 0, 0\n" in capsys.readouterr().out

    def test_overflowing_witness_is_clamped_and_noted(self, tmp_path, capsys):
        # every float64 value of this seed's witnesses is inf or NaN; their
        # exact values pass float64, so the witness value is clamped to
        # -sys.float_info.max and a note gives it as mantissa * 2**e
        doc = write_doc(tmp_path, "big.json", {"m": 20, "n": 6, "r": 2, "seed": [1e306, -1.2e306]})
        assert main(["classify", doc, "--verify"]) == 1
        out = capsys.readouterr().out
        assert f"witness_value: {-sys.float_info.max!r}" in out
        assert "past float64" in out
        assert "verify: status reproduced" in out
        assert main(["classify", doc, "--verify", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
        assert (payload["status"], payload["verified"]) == ("NotPSD", True)
        assert payload["witness_value"] == -sys.float_info.max
        assert re.fullmatch(r"the witness value is exactly -1\.\d+ \* 2\*\*10\d\d, past float64; "
                            r"it is reported as -1\.7976931348623157e\+308", payload["notes"][0])


#: Modules that a covered ``classify`` does not import.
_WATCHED = ("numpy", "dataclasses", "anticirculant.combinatorics")

#: Runs each argv of a JSON list through ``python -m anticirculant.cli``'s code
#: in one fresh process; prints [exit code, stdout, the ``_WATCHED`` modules
#: loaded so far] per argv.
_COLD_CLI = """
import contextlib, io, json, runpy, sys
out = []
for argv in json.loads(sys.argv[1]):
    sys.argv, buf, code = ["anticirculant", *argv], io.StringIO(), 0
    with contextlib.redirect_stdout(buf):
        try:
            runpy.run_module("anticirculant.cli", run_name="__main__")
        except SystemExit as exc:
            code = exc.code
    out.append([code, buf.getvalue(), [m for m in %r if m in sys.modules]])
print(json.dumps(out))
""" % (_WATCHED,)


def _fresh_process(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` with this package first on the path; output captured."""
    src = str(Path(anticirculant.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def _cold(code: str, *args: str) -> str:
    proc = _fresh_process("-c", code, *args)
    proc.check_returncode()
    return proc.stdout


class TestNumpyLoadsOnDemand:
    def test_package_import_skips_numpy(self):
        assert _cold("import anticirculant, sys; print('numpy' in sys.modules)") == "False\n"

    def test_covered_verdicts_skip_numpy(self, tmp_path, psd_doc, notpsd_doc):
        # neither numpy nor dataclasses nor combinatorics, for float and int seeds
        docs = [psd_doc, notpsd_doc] + [
            write_doc(tmp_path, f"int{i}.json", {"m": 4, "n": 4, "r": 2, "seed": seed})
            for i, seed in enumerate(([2, 1], [1, 2]))
        ]
        argvs = [["classify", doc, "--verify", "--json"] for doc in docs]
        cold = json.loads(_cold(_COLD_CLI, json.dumps(argvs)))
        assert [code for code, _, _ in cold] == [0, 1, 0, 1]
        assert all(json.loads(out)["verified"] is True for _, out, _ in cold)
        assert [loaded for _, _, loaded in cold] == [[]] * 4

    def test_near_rule_not_psd_skips_numpy(self, tmp_path):
        # witnesses past the alpha ladder, found by exact signs alone: the
        # m = 2 seed off the rule by 2e-12, an integer seed off it by 1 in
        # 10**40, and a float one by 1e-300 at zero tolerance
        docs = [write_doc(tmp_path, f"near{i}.json", doc) for i, doc in enumerate((
            {"m": 2, "n": 5, "r": 4, "seed": [0.6372000159352453, -0.03720001593424534,
                                              0.6372000159352453, -0.03720001593224533]},
            {"m": 4, "n": 4, "r": 4, "seed": [10**40, 0, 10**40, 1]},
            {"m": 4, "n": 4, "r": 4, "seed": [1.0, 0.0, 1.0, 1e-300], "tolerance": 0},
        ))]
        argvs = [["classify", doc, "--verify", "--json"] for doc in docs]
        cold = json.loads(_cold(_COLD_CLI, json.dumps(argvs)))
        assert [code for code, _, _ in cold] == [1, 1, 1]
        labels = [json.loads(out)["witness_label"] for _, out, _ in cold]
        assert labels == ["alpha(q=2, alpha=2**38)", "alpha(q=1, alpha=2**43)",
                          "alpha(q=1, alpha=2**331)"]
        assert all(json.loads(out)["verified"] is True for _, out, _ in cold)
        assert [loaded for _, _, loaded in cold] == [[]] * 3

    def test_oracle_names_resolve_on_the_package_root(self):
        from anticirculant import oracle

        assert anticirculant.sphere_min is oracle.sphere_min
        assert anticirculant.matrix_psd is oracle.matrix_psd
        with pytest.raises(AttributeError):
            anticirculant.no_such_name  # noqa: B018

    def test_numeric_commands_match_in_process_runs(self, psd_doc, uncovered_doc, capsys):
        argvs = [
            ["classify", uncovered_doc, "--starts", "8"],
            ["oracle", uncovered_doc, "--starts", "8", "--json"],
            ["hankelmatrix", psd_doc],
        ]
        cold = json.loads(_cold(_COLD_CLI, json.dumps(argvs)))
        warm = []
        for argv in argvs:
            code = main(argv)
            warm.append([code, capsys.readouterr().out])
        assert [row[:2] for row in cold] == warm
        assert [row[0] for row in cold] == [4, 0, 0]
        assert "numpy" in cold[0][2]

    def test_combinatorics_commands_import_it_on_demand(self, capsys):
        argvs = [
            ["sums", "6", "3", "1,-1"],
            ["sums", "4", "2", "1,1", "--json"],
            ["signfacts"],
            ["signfacts", "--json"],
            ["theorem1", "2", "1,2,3"],
            ["theorem1", "3", "1,0", "--json"],
        ]
        cold = json.loads(_cold(_COLD_CLI, json.dumps(argvs)))
        warm = []
        for argv in argvs:
            code = main(argv)
            warm.append([code, capsys.readouterr().out])
        assert [row[:2] for row in cold] == warm
        assert [row[0] for row in cold] == [0] * 6
        assert cold[0][1] == ("m=6 r=3 pattern=(1, -1)\nS_0 = -18\nS_1 = 9\nS_2 = 9\n"
                              "total = 0 (equals (sum pattern)^m = 0)\n")
        assert cold[4][1] == "M=2 p=3 u=(1, 2, 3)\nD = (0, -3, 3)\nverdict: MixedSigns\n"
        assert all("anticirculant.combinatorics" in loaded for _, _, loaded in cold)
        assert all("dataclasses" not in loaded for _, _, loaded in cold)


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


class TestNoFiniteValue:
    """A generating vector whose every float64 evaluation overflows: the FFT
    of 181 entries near 1e307 is already inf or NaN, so no candidate or start
    has a finite value."""

    @pytest.fixture
    def overflow_doc(self, tmp_path):
        rng = random.Random(0)
        genvec = [1e307 * rng.uniform(0.9, 1.1) for _ in range(181)]
        return write_doc(tmp_path, "overflow.json", {"m": 60, "n": 4, "genvec": genvec})

    def test_json_is_labelled_uncovered(self, overflow_doc):
        proc = _fresh_process("-m", "anticirculant.cli", "classify", "--json", overflow_doc)
        assert (proc.returncode, proc.stderr) == (4, "")
        payload = json.loads(proc.stdout, parse_constant=_no_constant)
        assert payload["status"] == "Uncovered"
        assert payload["evidence"]["argmin"] is None
        assert payload["evidence"]["min_value"] is None
        assert "no point with a finite float64 value" in payload["notes"][-1]

    def test_text_is_labelled_uncovered(self, overflow_doc):
        proc = _fresh_process("-m", "anticirculant.cli", "classify", overflow_doc)
        assert (proc.returncode, proc.stderr) == (4, "")
        assert "status: Uncovered" in proc.stdout
        assert "evidence: sphere-search min none over 64 starts" in proc.stdout
        assert "evidence_argmin: none" in proc.stdout
        assert "no point with a finite float64 value" in proc.stdout


def test_overflowing_min_value_is_exact(tmp_path):
    """Period 11 keeps the FFT finite, so some candidates have a finite kernel
    value, while a float64 evaluation at the argmin overflows to NaN; the
    exact value there fits float64 and is reported, rounded once."""
    genvec = [1e307 * (1 + 0.001 * ((37 * k) % 11)) for k in range(181)]
    doc = write_doc(tmp_path, "overflow.json", {"m": 60, "n": 4, "genvec": genvec})
    proc = _fresh_process("-m", "anticirculant.cli", "classify", "--json", doc)
    assert (proc.returncode, proc.stderr) == (4, "")
    payload = json.loads(proc.stdout, parse_constant=_no_constant)
    assert payload["status"] == "Uncovered"
    argmin = tuple(payload["evidence"]["argmin"])
    exact = eval_exact(GeneratingVector(60, 4, tuple(genvec)), argmin)
    assert payload["evidence"]["min_value"] == float(exact) == -6.629662731171532e307
    assert len(payload["notes"]) == 1


class TestDocumentErrors:
    @pytest.mark.parametrize("m", [10**30, 10**18])
    @pytest.mark.parametrize("argv", [["classify"], ["classify", "--verify", "--json"],
                                      ["eval", "1,2,3"], ["oracle"], ["hankelmatrix"]])
    def test_vector_past_a_tuple_is_an_input_error(self, tmp_path, capsys, m, argv):
        # at m = 10**18 classify reads the seed, never v: PSD, and verified;
        # eval and oracle refuse by the kernel's limits, and hankelmatrix,
        # which builds v, by its length.  At 10**30, L passes sys.maxsize.
        doc = write_doc(tmp_path, "huge.json", {"m": m, "n": 3, "r": 2, "seed": [1, 0.5]})
        code = main([argv[0], doc, *argv[1:]])
        captured = capsys.readouterr()
        if m == 10**18 and argv[0] == "classify":
            assert code == 0 and captured.err == ""
            if "--json" in argv:
                payload = json.loads(captured.out)
                assert payload["status"] == "PSD" and payload["verified"] is True
            else:
                assert captured.out.startswith("status: PSD\n")
            return
        assert code == 2 and captured.out == ""
        length = f"generating vector of L = (n-1)*m+1 = {2 * m + 1} entries"
        if m == 10**30:
            assert captured.err == f"error: {doc}: {length} is past sys.maxsize = {sys.maxsize}\n"
        elif argv[0] == "hankelmatrix":
            assert captured.err == f"error: {length} is too long to build\n"
        else:
            assert re.fullmatch(r"error: [^\n]* would need \d+ bits, the limit is \d+\n", captured.err)

    def test_order_of_a_billion(self, tmp_path, capsys):
        # the PSD seed answers, verified, from 4 entries of v; its NotPSD
        # twin's witness is past the kernel's limit, and the Uncovered
        # document's argmin (1/sqrt(2), 0, -1/sqrt(2), 0) folds to zero mod
        # v's period 2, past the bound on its denominator: each within 2 s
        for n, seed, want in ((3, [1, 0.5], 0), (3, [0.5, 1], 2), (4, [1, 0.5, 1, 0.5], 2)):
            doc = write_doc(tmp_path, "big.json", {"m": 10**9, "n": n, "r": len(seed), "seed": seed})
            start = time.perf_counter()
            assert main(["classify", "--verify", "--json", doc]) == want
            assert time.perf_counter() - start < 2
            captured = capsys.readouterr()
            if want == 0:
                payload = json.loads(captured.out)
                assert payload["status"] == "PSD" and payload["verified"] is True
            else:
                assert captured.out == "" and "the limit is" in captured.err
                assert "internal" not in captured.err

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

    def test_gradient_flag_evaluates_once(self, tmp_path, capsys, monkeypatch):
        # the value comes with the gradient, not from a second evaluation
        doc = write_doc(tmp_path, "e.json", {"m": 4, "n": 4, "r": 2, "seed": [3, -1]})
        monkeypatch.setattr(polyeval, "eval_fast", None)
        assert main(["eval", doc, "1,-2,0,1/3", "--gradient"]) == 0
        assert capsys.readouterr().out == "f(x) = 304/3\ngradient: 4064/27, -1376/9, 4064/27, -1376/9\n"
        assert main(["eval", doc, "1,-2,0", "--gradient"]) == 2

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

    @pytest.mark.parametrize(
        "x", ["1e400,0", "0,-1e400", "1%s,0" % ("0" * 400)], ids=["1e400", "-1e400", "exact-1e400"]
    )
    @pytest.mark.parametrize("flags", [[], ["--json"], ["--naive", "--gradient"]])
    def test_non_finite_coordinate_is_an_input_error(self, genvec_doc, capsys, x, flags):
        # a float past float64 parses as inf; an exact one is refused like a genvec entry
        assert main(["eval", genvec_doc, x] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "coordinate entries must be finite" in captured.err

    def test_exact_value_past_float64(self, tmp_path, capsys):
        # f = (x_1 + x_2)^4; text keeps the exact value, --json refuses it
        # rather than write Infinity
        doc = write_doc(tmp_path, "d.json", {"m": 4, "n": 2, "r": 2, "seed": [1, 1]})
        x = "1%s,0" % ("0" * 100)
        assert main(["eval", doc, x, "--naive", "--gradient"]) == 0
        out = capsys.readouterr().out
        assert out == "f(x) = 1%s\nf_naive(x) = 1%s\ngradient: 4%s, 4%s\n" % (
            "0" * 400, "0" * 400, "0" * 300, "0" * 300
        )
        assert main(["eval", doc, x, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: f(x) overflows float64 at this point\n"

    @pytest.mark.parametrize("flags", [[], ["--json"], ["--gradient"]])
    def test_float_overflow_is_an_input_error(self, psd_doc, capsys, flags):
        assert main(["eval", psd_doc, "1e100,0,0,0"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: f(x) overflows float64 at this point\n"

    def test_overflowing_gradient_is_an_input_error(self, tmp_path, capsys):
        # f = 0 at (10**103, 0), but the gradient's 4 * 10**309 is past float64
        doc = write_doc(tmp_path, "g.json", {"m": 4, "n": 2, "genvec": [0, 1, 0, 0, 0]})
        x = "1%s,0" % ("0" * 103)
        assert main(["eval", doc, x, "--gradient"]) == 0
        assert capsys.readouterr().out == "f(x) = 0\ngradient: 0, 4%s\n" % ("0" * 309)
        assert main(["eval", doc, x, "--gradient", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: gradient overflows float64 at this point\n"


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

    def test_long_patterns_answered(self, capsys):
        assert main(["sums", "60", "5", "1,-1,2,0,1,-3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pattern"] == [1, -1, 2, 0, 1, -3]
        assert len(payload["sums"]) == 5 and payload["total"] == 0
        assert main(["sums", "200", "3", "1,1,-2,1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["total"] == 1

    def test_signfacts_all_pass(self, capsys):
        assert main(["signfacts"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 20

    def test_signfacts_json(self, capsys):
        assert main(["signfacts", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert all(row["passed"] for row in rows)


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

    def test_sums_are_computed_once(self, monkeypatch, capsys):
        from anticirculant import combinatorics

        calls = []
        theorem1_sums = combinatorics.theorem1_sums

        def counting(seq, order):
            calls.append((seq.u, order))
            return theorem1_sums(seq, order)

        monkeypatch.setattr(combinatorics, "theorem1_sums", counting)
        assert main(["theorem1", "5", "1,2,3"]) == 0
        assert calls == [((1, 2, 3), 5)]


class TestExactOutputPastTheDigitLimit:
    """Exact values print in full past CPython's limit on int-to-str digits
    (4300 by default); input parsing keeps the limit."""

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_sums(self, capsys, flags):
        assert main(["sums", "15000", "3", "1,1"] + flags) == 0
        out = capsys.readouterr().out
        if flags:
            total = cli._unlimited(json.loads, out)["total"]
        else:
            total = cli._unlimited(int, re.search(r"^total = (\d+) ", out, re.M).group(1))
        assert total == 2**15000

    def test_eval(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "big.json", {"m": 20000, "n": 2, "r": 1, "seed": [1]})
        assert main(["eval", doc, "1,1"]) == 0
        out = capsys.readouterr().out
        assert cli._unlimited(int, out.removeprefix("f(x) = ")) == 2**20000

    def test_theorem1_at_large_order(self, capsys):
        assert main(["theorem1", "20000", "1,2", "--json"]) == 0
        sums = json.loads(capsys.readouterr().out)["sums"]
        assert [cli._unlimited(int, t) for t in sums] == [-(2**19999), 2**19999]

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="no digit limit in this interpreter")
    def test_input_parsing_keeps_the_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        assert main(["sums", "15000", "3", "1,1", "--json"]) == 0
        assert sys.get_int_max_str_digits() == limit
        assert main(["theorem1", "2", "1," + "1" * (limit + 1)]) == 2
        assert "Exceeds the limit" in capsys.readouterr().err


class TestOversizedOrders:
    """Residue sums wider than ``polyeval.KERNEL_BITS_MAX`` bits are an input
    error (exit 2), refused before any product."""

    @pytest.fixture(autouse=True)
    def no_products(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a kernel path ran")

        monkeypatch.setattr(polyeval, "_packed_power", refuse)
        monkeypatch.setattr(polyeval, "_miller_power", refuse)

    @pytest.mark.parametrize("argv", [["sums", "100000000", "3", "1,1"],
                                      ["sums", "2000000", "1000", "1,1"],
                                      ["theorem1", "100000000", "1,2"]])
    def test_sums_and_theorem1(self, capsys, argv):
        assert main(argv) == 2
        assert "the limit is" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--gradient"]])
    def test_eval(self, tmp_path, capsys, flags):
        # L = 200001; the point scales to ints of about 2000 bits, so the
        # power is about 2e8 bits wide per slot
        doc = write_doc(tmp_path, "deep.json", {"m": 100000, "n": 3, "r": 2, "seed": [1, 0.5]})
        assert main(["eval", *flags, doc, "1e300,1e-300,1"]) == 2
        assert "the limit is" in capsys.readouterr().err

    def test_classify(self, tmp_path, capsys, monkeypatch):
        # an order whose witness overflows the real cap needs a vector of
        # hundreds of millions of entries, so the cap is lowered: the index-2
        # witness (1, -1, 0) at m = 1000 packs 2 slots of 2002 bits
        monkeypatch.setattr(polyeval, "KERNEL_BITS_MAX", 4000)
        doc = write_doc(tmp_path, "deep.json", {"m": 1000, "n": 3, "r": 2, "seed": [0.5, 1]})
        assert main(["classify", doc]) == 2
        assert "the limit is 4000" in capsys.readouterr().err


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

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scale_is_not_psd(self, tmp_path, scale):
        # eigenvalues -scale and 3 * scale; squaring the entries would
        # overflow or underflow, and a warning would reach stderr
        doc = write_doc(tmp_path, "scaled.json",
                        {"m": 2, "n": 2, "genvec": [scale, 2 * scale, scale]})
        proc = _fresh_process("-m", "anticirculant.cli", "hankelmatrix", doc, "--json")
        assert proc.returncode == 0 and proc.stderr == ""
        payload = json.loads(proc.stdout, parse_constant=_no_constant)
        assert payload["psd"] is False
        assert payload["eigenvalues"] == pytest.approx([-scale, 3 * scale], rel=1e-12)

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_eigenvalue_past_float64_exits_2(self, tmp_path, capsys, flags):
        # finite entries; the largest eigenvalue, about 5.1e308, is not
        doc = write_doc(tmp_path, "huge.json", {"m": 2, "n": 3, "genvec": [1.7e308] * 5})
        assert main(["hankelmatrix", doc, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflows float64" in captured.err
