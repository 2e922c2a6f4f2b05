import ast
import hashlib
import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import numsgps
from numsgps import cli
from numsgps.genealogy import enumerate_semigroups, export_dot
from numsgps.oracle import CHECKS
from numsgps.semigroup import NumericalSemigroup

SCHEMA = json.loads(
    resources.files("numsgps").joinpath("schemas/cli_output.v1.json").read_text())


def validate(command, payload):
    jsonschema.validate(payload, {"$defs": SCHEMA["$defs"],
                                  "$ref": f"#/$defs/{command}"})


def run(*argv):
    return cli.main(list(argv))


def test_extensions_text(capsys):
    assert run("extensions", "<5,6,8,9>", "--proper") == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["[3,5]", "[4,5,6]", "[5,6,7,8,9]", "[3,5,7]",
                   "[4,5,6,7]", "[3,4,5]"]


def test_extensions_gap_style(capsys):
    assert run("extensions", "<5,6,8,9>", "--proper", "--gap-style") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "[ 3, 5 ]"
    assert out[-1] == "[ 3, 4, 5 ]"


def test_extensions_includes_self_by_default(capsys):
    assert run("extensions", "<5,6,8,9>") == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 7 and out[0] == "[5,6,8,9]"


def test_extensions_json(capsys):
    assert run("extensions", "<5,6,8,9>", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    validate("extensions", payload)
    assert payload[0] == [5, 6, 8, 9] and len(payload) == 7


def test_chain_text_matches_transcript(capsys):
    assert run("chain", "<5,7>", "--gap-style") == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["[ 5, 7, 23 ]", "[ 5, 7, 16, 18 ]", "[ 5, 7, 11, 13 ]",
                   "[ 5, 6, 7, 8, 9 ]", "[ 1 ]"]


def test_chain_full_and_theta(capsys):
    assert run("chain", "<5,7>", "--full") == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 6 and out[0] == "[5,7]"
    assert run("chain", "<4,6,9,11>", "--theta", "pf") == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["[2,5]", "[2,3]", "[1]"]


def test_chain_json(capsys):
    assert run("chain", "<5,7>", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    validate("chain", payload)
    assert payload == {"theta": "gamma",
                       "links": [[5, 7], [5, 7, 23], [5, 7, 16, 18],
                                 [5, 7, 11, 13], [5, 6, 7, 8, 9], [1]],
                       "length": 5}


def test_complexity_text(capsys):
    assert run("complexity", "<1>") == 0
    assert capsys.readouterr().out == "0\n"
    assert run("complexity", "<5,7>") == 0
    assert capsys.readouterr().out == "5\n"


def test_complexity_json(capsys):
    assert run("complexity", "5,7", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    validate("complexity", payload)
    assert payload == {"generators": [5, 7], "complexity": 5}


def test_info_text(capsys):
    assert run("info", "<4,6,9,11>") == 0
    out = capsys.readouterr().out
    for line in ("semigroup: <4,6,9,11>", "multiplicity: 4", "frobenius: 7",
                 "genus: 5", "pseudo-frobenius: 2,5,7", "type: 3",
                 "complexity: 2", "class: elementary-not-ordinary"):
        assert line in out


def test_info_json(capsys):
    assert run("info", "<4,6,9,11>", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    validate("info", payload)
    assert payload["generators"] == [4, 6, 9, 11]
    assert payload["pf"] == [2, 5, 7]
    assert run("info", "<1>", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    validate("info", payload)
    assert payload["pf"] is None and payload["frobenius"] == -1


def test_info_from_gaps(capsys):
    assert run("info", "--gaps", "1,2,3,4,7", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["generators"] == [5, 6, 8, 9]


def test_enumerate_text_count_json(capsys):
    assert run("enumerate", "-m", "3", "-c", "4") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["[3,7]", "[3,8,13]", "[3,10,14]", "[3,11,13]", "[3,13,14]"]
    assert run("enumerate", "-m", "3", "-c", "4", "--count") == 0
    assert capsys.readouterr().out == "5\n"
    assert run("enumerate", "-m", "3", "-c", "4", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    validate("enumerate", payload)
    assert len(payload) == 5


def test_enumerate_count_builds_no_semigroup(capsys, monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("--count must not build the members")
    monkeypatch.setattr(cli, "enumerate_semigroups", build)
    assert run("enumerate", "-m", "6", "-c", "4", "--count") == 0
    assert capsys.readouterr().out == "370\n"


def test_enumerate_count_json_conflict(capsys):
    with pytest.raises(SystemExit) as exc:
        run("enumerate", "-m", "3", "-c", "4", "--count", "--json")
    assert exc.value.code == 2


def test_emitted_lines_parse_back(capsys):
    for argv, expected in [
        (("enumerate", "-m", "4", "-c", "3"), set(enumerate_semigroups(4, 3))),
        (("enumerate", "-m", "4", "-c", "3", "--gap-style"),
         set(enumerate_semigroups(4, 3))),
    ]:
        assert run(*argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert {NumericalSemigroup.parse(line) for line in lines} == expected


def test_tree_dot(capsys):
    assert run("tree-dot", "-m", "2", "--depth", "2") == 0
    assert capsys.readouterr().out == export_dot(2, 2)


def test_verify_ok(capsys):
    assert run("verify", "--max-genus", "5") == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["check pf: ok (genus <= 5)",
                   "check ext: ok (genus <= 5)",
                   "check complexity: ok (genus <= 5)",
                   "check tree: ok (genus <= 5)"]


def test_verify_subset_and_json(capsys):
    assert run("verify", "--max-genus", "4", "--checks", "pf,tree", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    validate("verify", payload)
    assert payload["ok"] is True
    assert [c["name"] for c in payload["checks"]] == ["pf", "tree"]


def test_verify_stops_at_first_discrepancy(capsys, monkeypatch):
    monkeypatch.setitem(CHECKS, "pf", lambda catalog: "pf mismatch at <2,3>")
    assert run("verify", "--max-genus", "3", "--checks", "pf,ext") == 1
    out = capsys.readouterr().out
    assert "check pf: FAIL pf mismatch at <2,3>" in out
    assert "ext" not in out


def test_verify_failure_json(capsys, monkeypatch):
    monkeypatch.setitem(CHECKS, "ext", lambda catalog: "boom")
    assert run("verify", "--max-genus", "3", "--json") == 1
    payload = json.loads(capsys.readouterr().out)
    validate("verify", payload)
    assert payload["ok"] is False
    assert payload["checks"][-1] == {"name": "ext", "ok": False, "detail": "boom"}


def test_verify_unknown_check(capsys):
    for checks in ("pf,bogus", ",", ""):  # an empty list would certify nothing
        with pytest.raises(SystemExit) as exc:
            run("verify", "--checks", checks)
        assert exc.value.code == 2


def test_search_pf_gap(capsys):
    assert run("search-pf-gap", "--max-genus", "5") == 0
    assert capsys.readouterr().out == "<4,6,9,11> complexity=2 mu_pf=3\n"
    assert run("search-pf-gap", "--max-genus", "5", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    validate("search-pf-gap", payload)
    assert payload == [{"generators": [4, 6, 9, 11], "complexity": 2, "mu_pf": 3}]


def test_usage_errors_exit_2(capsys):
    assert run("info", "bogus") == 2
    assert "error:" in capsys.readouterr().err
    assert run("info", "<4,6>") == 2
    assert "gcd" in capsys.readouterr().err
    assert run("enumerate", "-m", "1", "-c", "2") == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run("info")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run("info", "<2,3>", "--gaps", "1")
    assert exc.value.code == 2


def test_gaps_must_be_integers(capsys):
    assert run("info", "--gaps", "1,x") == 2
    assert "expected a comma-separated integer list" in capsys.readouterr().err

def test_node_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("NUMSGPS_NODE_CAP", "10")
    assert run("enumerate", "-m", "5", "-c", "4") == 2
    assert "cap of 10 nodes" in capsys.readouterr().err
    for bad in ("junk", "0", "-1"):
        monkeypatch.setenv("NUMSGPS_NODE_CAP", bad)
        assert run("enumerate", "-m", "3", "-c", "1") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "NUMSGPS_NODE_CAP" in captured.err
        assert run("tree-dot", "-m", "3", "--depth", "0") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "NUMSGPS_NODE_CAP" in captured.err


def python(*argv):
    # a fresh interpreter on the package under test, installed or not
    src = str(Path(numsgps.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_console_entry_point():
    proc = python("-m", "numsgps.cli", "complexity", "<5,7>")
    assert proc.returncode == 0
    assert proc.stdout == "5\n"


def test_library_import_leaves_the_cli_out():
    # bench/run.py times `import numsgps` as setup_s: keep the front end out of it
    proc = python("-c", "import sys, numsgps; "
                  "print(sorted({'numsgps.cli', 'argparse', 'json'} & set(sys.modules)))")
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_library_has_no_assert_statement():
    # python -O strips asserts, so no check may live in one
    package = Path(numsgps.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        asserts = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not asserts, (path.name, asserts)


def test_public_names_are_pinned():
    # a name joins or leaves the public surface only by an edit here
    assert numsgps.__all__ == [
        "CHECKS", "ChainTooLong", "Classification", "FrobeniusTooLarge", "GcdNotOne",
        "GenusCatalog", "GenusTooLarge", "IChain", "LevelTooLarge", "MultiplicityTooLarge",
        "NotAMember", "NotASemigroup", "NumericalSemigroup", "SemigroupError",
        "ThetaMap", "TypeTooLarge", "WHOLE", "WholeMonoid", "chain", "child_edges",
        "classify", "complexity", "count", "enumerate_by_genus", "enumerate_semigroups",
        "export_dot", "extensions_bruteforce", "from_gaps", "ideal_extensions",
        "is_ideal_extension", "is_pertinent", "min_ichain_bfs", "mu", "pertinent_sets",
        "pf_bruteforce", "pf_gap_search", "removal_candidates", "root", "shift_embed",
        "theta_apply", "validate_chain",
    ]


@pytest.mark.parametrize("argv, message", [
    (["info", "--gaps", "1,2,6"], "error: not closed under addition: 3 + 3 = 6 is missing"),
    (["info", "<5000,5001>"], "error: multiplicity 5000 exceeds 4096"),
    (["info", "--gaps", "2199023255552"],
     "error: Frobenius number 2199023255552 exceeds 1099511627776"),
    (["chain", "<2,1099511627777>"], "error: chain of <2,1099511627777> exceeds 131072 links"),
], ids=["not-a-semigroup", "multiplicity-too-large", "frobenius-too-large", "chain-too-long"])
def test_guards_fire_under_python_O(argv, message):
    proc = python("-O", "-m", "numsgps.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message + "\n")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_info_refuses_a_genus_it_cannot_list(capsys, json_flag):
    # F = 2^40 - 1 passes the Frobenius guard, but info would list about 2^40 numbers
    start = time.perf_counter()
    assert run("info", "<2,1099511627777>", *json_flag) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: genus 549755813888 exceeds the info guard 1048576\n"


def test_node_cap_applies_to_tree_dot(capsys, monkeypatch):
    monkeypatch.setenv("NUMSGPS_NODE_CAP", "5")
    assert run("tree-dot", "-m", "4", "--depth", "3") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cap of 5 nodes" in captured.err


# sha256 of stdout, as printed before semigroups were compared on Ap(S, m):
# the hash change must not reorder any output
GOLDEN = [
    ("info <5,6,8,9>", "632672de22af90ac629a43abf46afb272c8fdb4315da06d13ca4987576ab8e53"),
    ("info <5,6,8,9> --json", "2ebe1cc512794a04d1aeed14ed75029c7cc1f37c63e345ab783f3578892d15dd"),
    ("extensions <5,6,8,9>", "c4da554dae4b43dc3d422b880301bc8af267fe945cfe9e88c41a1867320bd183"),
    ("extensions <5,6,8,9> --json",
     "4a7c0624fbe83d34d3bc96bb065d50966b08a6c6ae6ac2c3723a1f22b64cf80d"),
    ("chain <5,7>", "c056b3e1d406ebc5aa9ab96094ddaa0b637f408f0d009d481f0251a0a968ea1a"),
    ("chain <5,7> --json", "c5e4780c87c6a1c470210b876db631843709085a2865ed0affc6b4e1bb45c207"),
    ("chain --theta pf <4,6,9,11>",
     "7951f310ba31f701103127493b55da0fb93a598f2c1d48cf047d13cdab4e4f58"),
    ("chain --theta pf <4,6,9,11> --json",
     "d425526be6be9eb0ab9251b8cb6223adf6aea4e8b2933381bf90d0edc838701f"),
    ("enumerate -m 6 -c 4 --count",
     "1128e21c6f4fbe8d60954f40b65239c00c2c58f1dc17c7995f108623001892e1"),
    ("enumerate -m 6 -c 4", "e9573198cfab1dd8a6dd3957a4529e204fb9b4276b78706122aef49cc8f5ff71"),
    ("enumerate -m 6 -c 4 --json",
     "be52010cfce4a899606faaab0a61dd82278bcadbad3f1c7fa8ff579019e8fdae"),
    ("verify --max-genus 8", "f9bde779bd4a35f56f099596c79c7a4db9b8f3b93ef9505360038bed91d30911"),
    ("verify --max-genus 8 --json",
     "f149c754e0c675919ca4888e84be3a1d31b495b2637bec4e49f5761db47a225c"),
    ("search-pf-gap --max-genus 8",
     "df8865449e718da2196a0d6b2af21a610bef4bd714442d29e3a8476388b9bfc1"),
    ("search-pf-gap --max-genus 8 --json",
     "7e4701ac97fba47269343e6da661cb35387fc90d4c5cf47d7b292316ad1ba794"),
    # pinned while each handler still printed its own output
    ("complexity <5,7>", "f0b5c2c2211c8d67ed15e75e656c7862d086e9245420892a7de62cd9ec582a06"),
    ("complexity <5,7> --json",
     "c508a65f8e2f245f3c870f6ce6f9b616b856bc4847d99de42a01c4128410afa8"),
    ("tree-dot -m 5 --depth 4",
     "1cfa6fa1a353648165773c546f4711f30152a5e2c0487544e7812c6888a81892"),
    ("extensions <5,6,8,9> --proper --gap-style",
     "22d386af02757ded2bc993d0323f5aae2042282215b484819caab2575e4ea451"),
    ("chain <5,7> --full --gap-style",
     "018b07080593d1bb122698574b56ff9d8656c77fc423aaf50dcf90e090ad6a0f"),
    ("chain --theta min-half <4,6,9,11> --json",
     "af016924f63be37124a61027de4ef06d065402cc2017e869a80d2df1bb4a829e"),
    ("enumerate -m 6 -c 4 --gap-style",
     "ecbfcd7f25a01f80008191640bf2b043c4421988016e44f6cc12bf3ac8aa516c"),
    ("info <1>", "a52409be5b492f20be710fc5688507e7dfced078099fdb9987a85a86670a5eb6"),
    ("info <1> --json", "f0e4f721119ed4b6652274a13f6e3a86e6afeed46857dd56a0b11d57f7f59cb7"),
    ("verify --max-genus 5 --checks pf,tree --json",
     "f52a78109038b0f07ce4abfc9779bae02f224e2630e323465551e977f72b254b"),
    # pinned while the oracle still built its catalog from minimal generators
    ("verify --max-genus 12 --json",
     "6e6d767a9f43fe178f7d4502b44ac0cb1cde6f925e1cbead6cea17e8e4bfce31"),
    ("search-pf-gap --max-genus 12",
     "0a326d55e9346c4ee9e1c21f1b531e0c3333eb618031df994c8ff4c9d91e2742"),
    # the sha256 of empty output
    ("chain <1>", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("search-pf-gap --max-genus 3",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("argv, sha256", GOLDEN, ids=[argv for argv, _ in GOLDEN])
def test_output_bytes_are_pinned(capsys, argv, sha256):
    assert run(*argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256
