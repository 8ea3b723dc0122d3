"""End-to-end command line checks: exit codes, JSON output, determinism."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kvlie import cli

KVLIE = [sys.executable, "-m", "kvlie.cli"]


def run(*args, stdin=None, timeout=None):
    return subprocess.run(KVLIE + list(args), input=stdin,
                          capture_output=True, text=True, timeout=timeout)


def test_bch_output():
    res = run("bch", "--degree", "3")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    terms = {t["word"]: t["coeff"] for t in doc["terms"]}
    assert terms["x"] == "1/1"
    assert terms["xy"] == "1/2"
    assert terms["xxy"] == "1/12"


def test_duflo_output():
    res = run("duflo", "--degree", "4")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    terms = {t["necklace"]: t["coeff"] for t in doc["terms"]}
    assert terms["xy"] == "-1/24"


def test_pipeline_exp_then_classify():
    braid = run("braid", "--i", "1", "--j", "2", "--strands", "2",
                "--degree", "4")
    assert braid.returncode == 0
    flags = run("classify", "--input", "-", stdin=braid.stdout)
    assert flags.returncode == 0
    doc = json.loads(flags.stdout)
    assert doc["special"] is True and doc["krv"] is True


def test_pipeline_exp_apply(tmp_path):
    braid = run("braid", "--i", "1", "--j", "2", "--strands", "2",
                "--degree", "4")
    der = tmp_path / "t.json"
    der.write_text(braid.stdout)
    exp = run("exp", "--input", str(der))
    assert exp.returncode == 0
    aut = tmp_path / "g.json"
    aut.write_text(exp.stdout)
    target = tmp_path / "x.json"
    target.write_text(json.dumps(
        {"degreeN": 4, "terms": [{"word": "x", "coeff": "1/1"}]}))
    res = run("apply", "--input", str(aut), "--target", str(target),
              "--kind", "lie", "--arity", "2")
    assert res.returncode == 0
    terms = {t["word"]: t["coeff"] for t in json.loads(res.stdout)["terms"]}
    # e^{ad} of the inner braid derivation moves x inside brackets with x+y
    assert terms["x"] == "1/1"


def test_apply_reads_numbered_letters_without_arity(tmp_path):
    # five or more letters are named x1..xn; the target names only x5
    braid = run("braid", "--i", "1", "--j", "5", "--strands", "5")
    assert braid.returncode == 0
    target = tmp_path / "x5.json"
    target.write_text(json.dumps(
        {"degreeN": 4, "terms": [{"word": "x5", "coeff": "1/1"}]}))
    res = run("apply", "--input", "-", "--target", str(target), stdin=braid.stdout)
    assert res.returncode == 0, res.stderr
    # t^{15} sends x5 to [x5, x1] = -[x1 x5]
    assert json.loads(res.stdout) == {
        "degreeN": 4, "terms": [{"word": "x1x5", "coeff": "-1/1"}]}


def test_kv_solve_smoke():
    res = run("kv-solve", "--degree", "3")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["report"]["notes"]["defining_residual_zero"] is True


def test_check_trivial_phi_fails_hexagon():
    res = run("check", "hexagon", "--phi", "trivial", "--degree", "2")
    assert res.returncode == 1
    assert "check failed" in res.stderr


def test_check_duality_trivial_phi_passes():
    # the identity automorphism does satisfy the duality axiom
    res = run("check", "duality", "--phi", "trivial", "--degree", "2")
    assert res.returncode == 0


ELEMENT_D3 = Path(__file__).parent / "golden" / "assoc_element_d3.json"


@pytest.mark.parametrize("what", ["all", "symmetries"])
def test_check_input_and_trivial_phi_exclude_each_other(what):
    # the missing file must be refused, not silently replaced by --phi
    res = run("check", what, "--phi", "trivial", "--input", "missing.json")
    assert res.returncode == 2
    assert "not both" in res.stderr and "Traceback" not in res.stderr


def test_check_choices_are_the_selectors_and_symmetries():
    res = run("check", "--help")
    assert res.returncode == 0
    assert "{duality,pentagon,hexagon,hexagon+,hexagon-,all,symmetries}" in res.stdout


def test_assoc_solve_pipes_into_check():
    solved = run("assoc-solve", "--degree", "3")
    assert solved.returncode == 0
    res = run("check", "all", "--input", "-", stdin=solved.stdout)
    assert res.returncode == 0, res.stderr
    assert all(json.loads(res.stdout)["notes"].values())


@pytest.mark.parametrize("args", [
    ["--input", str(ELEMENT_D3), "--degree", "0"],
    ["--input", str(ELEMENT_D3), "--degree", "4"],
    ["--phi", "trivial", "--degree", "0"],
], ids=["degree_0", "degree_above_element", "trivial_degree_0"])
def test_check_degree_out_of_range_exit_2(args):
    res = run("check", "pentagon", *args)
    assert res.returncode == 2
    assert "check degree" in res.stderr and "Traceback" not in res.stderr


@pytest.fixture(scope="module")
def kv_solve_d4():
    res = run("kv-solve", "--degree", "4")
    assert res.returncode == 0, res.stderr
    return res.stdout


@pytest.mark.parametrize("degree, code", [(None, 0), ("4", 0), ("0", 2), ("6", 2)],
                         ids=["default", "degree_4", "degree_0", "degree_6"])
def test_kv_solve_pipes_into_check_symmetries(kv_solve_d4, degree, code):
    # check symmetries reads the f of a whole kv-solve document
    extra = [] if degree is None else ["--degree", degree]
    res = run("check", "symmetries", "--input", "-", *extra, stdin=kv_solve_d4)
    assert res.returncode == code, res.stderr
    if code:
        assert "check degree" in res.stderr and "Traceback" not in res.stderr
    else:
        notes = json.loads(res.stdout)["notes"]
        assert all(all(per_degree.values()) for per_degree in notes.values())


def test_automorphism_log_must_match_images():
    doc = json.loads(ELEMENT_D3.read_text())
    term = doc["log"]["components"][0]["terms"][0]
    term["coeff"] = "1/7"
    res = run("jcocycle", "--input", "-", stdin=json.dumps(doc))
    assert res.returncode == 2
    assert "'log'" in res.stderr and "Traceback" not in res.stderr


def test_non_tangential_image_without_log_exit_2():
    # x -> x + [y, z] is not a conjugate of x
    doc = {"n": 3, "images": [
        {"degreeN": 3, "terms": [{"word": "x", "coeff": "1/1"},
                                 {"word": "yz", "coeff": "1/1"}]},
        {"degreeN": 3, "terms": [{"word": "y", "coeff": "1/1"}]},
        {"degreeN": 3, "terms": [{"word": "z", "coeff": "1/1"}]}]}
    res = run("jcocycle", "--input", "-", stdin=json.dumps(doc))
    assert res.returncode == 2
    assert "conjugated" in res.stderr and "Traceback" not in res.stderr


def test_usage_errors_exit_2():
    assert run("bch", "--degree", "nope").returncode == 2
    assert run("mystery-verb").returncode == 2
    assert run("classify", "--input", "/no/such/file.json").returncode == 2
    bad_json = run("classify", "--input", "-", stdin="{not json")
    assert bad_json.returncode == 2


def test_graphs_verb():
    res = run("graphs", "--type", "lie", "--count", "2")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert len(doc) == 2
    wheels = json.loads(run("graphs", "--type", "wheel", "--count", "2").stdout)
    assert wheels[0]["multiplicity"] == 2


def test_weight_verbs():
    ex = run("weight", "example", "--tol", "1e-8")
    assert ex.returncode == 0
    doc = json.loads(ex.stdout)
    assert abs(doc["value"] - 1.0 / 24.0) < 1e-8
    g = json.dumps({"n": 1, "m": 2, "edges": [[1, "g1"], [1, "g2"]]})
    mc = run("weight", "mc", "--input", "-", "--samples", "50000",
             "--seed", "4", stdin=g)
    assert mc.returncode == 0
    est = json.loads(mc.stdout)
    assert abs(est["value"] - 0.5) < 5.0 * est["stderr"]
    assert est["seed"] == 4


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_weight_example_bad_tolerance_exit_2(tol):
    # NaN and Infinity are not JSON, so they must not reach stdout
    res = run("weight", "example", "--tol", tol)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "tolerance" in res.stderr and "Traceback" not in res.stderr


def test_weight_mc_draws_the_whole_budget():
    # 10 samples over 4 streams: the first two streams draw 3, the rest 2
    g = json.dumps({"n": 1, "m": 2, "edges": [[1, "g1"], [1, "g2"]]})
    res = run("weight", "mc", "--input", "-", "--samples", "10",
              "--streams", "4", stdin=g)
    assert res.returncode == 0
    assert json.loads(res.stdout)["samples"] == 10


@pytest.mark.parametrize("streams", ["0", "1001"])
def test_weight_mc_bad_streams_exit_2(streams):
    g = json.dumps({"n": 1, "m": 2, "edges": [[1, "g1"], [1, "g2"]]})
    res = run("weight", "mc", "--input", "-", "--samples", "1000",
              "--streams", streams, stdin=g)
    assert res.returncode == 2
    assert "streams" in res.stderr and "Traceback" not in res.stderr


def test_float_coefficient_input_exit_2():
    doc = {"n": 2, "components": [
        {"degreeN": 3, "terms": [{"word": "y", "coeff": 0.1}]},
        {"degreeN": 3, "terms": [{"word": "x", "coeff": "1/1"}]}]}
    res = run("classify", "--input", "-", stdin=json.dumps(doc))
    assert res.returncode == 2
    assert "'y'" in res.stderr and "not exact" in res.stderr


@pytest.mark.parametrize("doc", [
    {"components": []},
    {"n": 2, "components": [
        {"degreeN": 3, "terms": [{"word": 5, "coeff": "1/1"}]},
        {"degreeN": 3, "terms": [{"word": "x", "coeff": "1/1"}]}]},
    {"n": 2, "components": [
        {"degreeN": 3, "terms": {"word": "y", "coeff": "1/1"}},
        {"degreeN": 3, "terms": []}]},
    {"n": 2, "components": 5},
    {"n": 2, "components": [{"degreeN": "3", "terms": []},
                            {"degreeN": 3, "terms": []}]},
], ids=["missing_n", "numeric_word", "terms_not_a_list",
        "components_not_a_list", "string_degree"])
def test_malformed_document_exit_2(doc):
    res = run("classify", "--input", "-", stdin=json.dumps(doc))
    assert res.returncode == 2
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr


@pytest.mark.parametrize("verb,stdin", [
    (["classify"], "5"),
    (["exp"], "[1, 2]"),
    (["weight", "mc"], "5"),
    (["weight", "mc"], json.dumps({"n": 1})),
    (["weight", "mc"], json.dumps({"n": 1, "edges": [[1]]})),
    (["weight", "mc"], json.dumps({"n": "1", "edges": []})),
    (["weight", "mc"], json.dumps({"n": 1, "edges": [[1, [2]], [1, "g1"]]})),
    (["classify"], json.dumps({"n": 2, "components": [
        {"degreeN": 3, "terms": [{"word": "y", "coeff": "1/0"}]},
        {"degreeN": 3, "terms": []}]})),
], ids=["classify_number", "exp_list", "graph_number",
        "graph_missing_edges", "graph_short_edge", "graph_string_n",
        "graph_list_vertex", "zero_denominator"])
def test_malformed_top_level_and_graph_exit_2(verb, stdin):
    res = run(*verb, "--input", "-", stdin=stdin)
    assert res.returncode == 2
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr


def test_angle_verb():
    res = run("angle", "--p", "1j", "--q", "2j")
    assert res.returncode == 0
    assert json.loads(res.stdout)["angle"] == pytest.approx(0.0, abs=1e-12)
    bad = run("angle", "--p", "1j", "--q", "1j")
    assert bad.returncode == 2


@pytest.mark.parametrize("argv", [
    ["--p", "inf", "--q", "1"],
    ["--p", "1e-200+1j", "--q", "1j", "--gradient"],
], ids=["infinite_point", "underflowing_distance"])
def test_angle_without_a_finite_answer_exit_2(argv, capsys):
    assert cli.main(["angle", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


def test_angle_of_large_finite_points(capsys):
    # (q - p) / (q - conj(p)) overflows in one complex division here, but
    # the angle exists: arg(q - p) - arg(q - conj(p)) is pi / 2
    assert cli.main(["angle", "--p", "1e308+1e308j", "--q", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["angle"] == math.pi / 2


def test_angle_takes_a_negative_real_part_in_both_forms():
    from kvlie.weights import angle
    spaced = run("angle", "--p", "-1+0.5j", "--q", "-.5+2j")
    joined = run("angle", "--p=-1+0.5j", "--q=-.5+2j")
    assert spaced.returncode == joined.returncode == 0, spaced.stderr
    assert spaced.stdout == joined.stdout
    assert json.loads(spaced.stdout)["angle"] == angle(-1 + 0.5j, -0.5 + 2j, "hyperbolic")
    missing = run("angle", "--p", "1j", "--q")
    assert missing.returncode == 2 and "expected one argument" in missing.stderr


def test_byte_determinism():
    g = json.dumps({"n": 1, "m": 2, "edges": [[1, "g1"], [1, "g2"]]})
    cases = [
        ("bch", "--degree", "4"),
        ("duflo", "--degree", "4"),
        ("kv-solve", "--degree", "3"),
        ("graphs", "--type", "wheel", "--count", "3"),
    ]
    for args in cases:
        a, b = run(*args), run(*args)
        assert a.stdout == b.stdout and a.returncode == 0, args
    mc1 = run("weight", "mc", "--input", "-", "--samples", "20000",
              "--seed", "9", stdin=g)
    mc2 = run("weight", "mc", "--input", "-", "--samples", "20000",
              "--seed", "9", stdin=g)
    assert mc1.stdout == mc2.stdout


def test_closed_stdout_exits_1_without_traceback():
    # the reading end is closed before the child writes, so its write fails
    golden = Path(__file__).parent / "golden" / "taut_input_d6.json"
    proc = subprocess.Popen(KVLIE + ["exp", "--input", str(golden)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr


def zero_tder_doc(n, degree=3):
    return json.dumps({"n": n, "components": [{"degreeN": degree, "terms": []}] * n})


def test_membership_on_one_letter_exit_2():
    # braid brackets need two strands; the timeout guards Duval's loop, which
    # never ends on the empty alphabet of pairs
    res = run("membership", "--input", "-", "--homogeneous-degree", "2",
              stdin=zero_tder_doc(1), timeout=60)
    assert res.returncode == 2
    assert "2 strands" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("degree", ["0", "-3", "9"])
def test_membership_degree_out_of_range_exit_2(degree):
    res = run("membership", "--input", "-", "--homogeneous-degree", degree,
              stdin=zero_tder_doc(3))
    assert res.returncode == 2
    assert "outside 1..3" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("args,stdin", [
    (["classify", "--input", "-"], zero_tder_doc(65)),
    (["extend", "--input", "-", "--pattern", "1,2", "--arity", "65"], zero_tder_doc(2)),
    (["braid", "--i", "1", "--j", "2", "--strands", "65"], None),
    # apply reads (and rejects) its target before its input
    (["apply", "--input", "-", "--target", "-"],
     json.dumps({"degreeN": 1, "terms": [{"word": "x2000000", "coeff": "1/1"}]})),
], ids=["document_n", "arity", "strands", "numbered_name"])
def test_alphabet_above_bound_exit_2(args, stdin):
    res = run(*args, stdin=stdin, timeout=60)
    assert res.returncode == 2
    assert "1 to 64 generators" in res.stderr and "Traceback" not in res.stderr


def test_main_reuses_one_parser(capsys):
    assert cli._parser() is cli._parser()
    runs = []
    for argv in (["bch", "--degree", "3"], ["braid", "--i", "1", "--j", "9"],
                 ["bch"], ["bch", "--degree", "3"]):
        code = cli.main(argv)
        runs.append((code, capsys.readouterr().out))
    assert runs[0][0] == 0 and runs[0] == runs[3]
    assert runs[1] == (2, "")
    assert runs[2][0] == 0 and json.loads(runs[2][1])["degreeN"] == 6


_LAZY_FLOAT_STACK = """
import contextlib, io, json, sys
import kvlie, kvlie.cli

def call(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert kvlie.cli.main(list(argv)) == 0
    return out.getvalue()

def loaded():
    return sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"})

call("bch", "--degree", "4")
call("assoc-solve", "--degree", "3")
call("angle", "--p", "0.5+1j", "--q", "1+2j")
exact = loaded()
value = json.loads(call("weight", "example", "--tol", "1e-8"))["value"]
print(json.dumps({"exact": exact, "float": loaded(), "value": value}))
"""


def test_float_stack_loads_only_for_a_weight():
    src = Path(__file__).resolve().parent.parent / "src"
    res = subprocess.run([sys.executable, "-c", _LAZY_FLOAT_STACK],
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["exact"] == []
    assert doc["float"] == ["numpy", "scipy"]
    assert abs(doc["value"] - 1 / 24) <= 1e-8
