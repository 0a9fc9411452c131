import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from modend import cli
from modend.common import ParseError, UnknownName


@pytest.fixture(scope="module")
def bundle():
    return cli.load(cli.bundled_instance_paths())


def test_bundled_corpus_loads_and_validates(bundle):
    assert set(bundle.categories) == {"vec_z2_triv", "vec_z2_omega", "vec_z4",
                                      "fib", "ising"}
    assert "vec_over_vec_z2" in bundle.modules
    assert "forgetful" in bundle.functors
    assert all(rep.ok for rep in bundle.validate_all())


def test_dangling_reference_fails(tmp_path):
    doc = {"modules": {"orphan": {"type": "regular", "category": "missing"}}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(UnknownName):
        cli.load([str(path)])


def _mutated_fib(mutate, category_only=False):
    with open(next(p for p in cli.bundled_instance_paths() if p.endswith("fib.json"))) as fh:
        doc = json.load(fh)
    mutate(doc["categories"]["fib"])
    if category_only:
        doc = {"categories": doc["categories"]}
    return json.dumps(doc)


MALFORMED = {
    "not-json": "{not json",
    "top-level-not-an-object": "[]",
    "section-not-an-object": '{"categories": []}',
    "non-monic-min-poly": _mutated_fib(lambda c: c["field"].update(min_poly=["-1", "1", "2"])),
    "missing-unit": _mutated_fib(lambda c: c.pop("unit")),
    "f-symbol-1/0": _mutated_fib(lambda c: c["f_symbols"][0].update(value="1/0")),
    "two-element-fusion-triple": _mutated_fib(lambda c: c["fusion"].__setitem__(
        0, c["fusion"][0][:2])),
    "four-element-fusion-triple": _mutated_fib(lambda c: c["fusion"].append(
        ["tau", "tau", "tau", "1"]), category_only=True),
    "act-right-without-regular": json.dumps({
        "categories": json.loads(_mutated_fib(lambda c: None))["categories"],
        "functors": {"rmul_fib_tau": {"type": "act_right", "category": "fib",
                                      "label": "tau"}}}),
}


def test_parse_error(tmp_path, capsys):
    with pytest.raises(ParseError):
        cli.load([str(tmp_path / "missing.json")])
    for case, text in MALFORMED.items():
        path = tmp_path / "broken.json"
        path.write_text(text)
        with pytest.raises(ParseError):
            cli.load([str(path)])
        capsys.readouterr()
        assert cli.main(["-i", str(path), "validate"]) == 1, case
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1, case
        report = json.loads(lines[0])
        assert report["status"] == "validation-failed", case
        if case.endswith("fusion-triple"):
            assert report["error"].startswith("category 'fib': ValueError"), report
        if case == "act-right-without-regular":
            assert report["error"] == ("functor 'rmul_fib_tau': act_right needs the "
                                       "module 'fib_regular'"), report


def _bundled_path(basename):
    return next(p for p in cli.bundled_instance_paths() if Path(p).name == basename)


def _leaf_paths(node, path=()):
    """Key paths of the scalar leaves of a JSON document, in document order."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _leaf_paths(child, path + (key,))
    else:
        yield path


LEAF_VALUES = (0, -1, "1/0", "x", None, [], {}, "s", "e")

# file to mutate, files loaded beside it, command run on the mutated bundle
BOUNDARY_SWEEPS = [("vec_z2_omega.json", (), ["validate"]),
                   ("vec_over_vec_z2.json", ("vec_z2_triv.json",),
                    ["character", "vec_over_vec_z2", "forgetful"])]


@pytest.mark.parametrize("filename,beside,command", BOUNDARY_SWEEPS,
                         ids=[sweep[0] for sweep in BOUNDARY_SWEEPS])
def test_single_leaf_mutations_never_escape(tmp_path, capsys, filename, beside, command):
    """Every single-leaf mutation ends in one JSON line and a documented exit code."""
    doc = json.loads(Path(_bundled_path(filename)).read_text())
    flags = [arg for name in beside for arg in ("-i", _bundled_path(name))]
    path = tmp_path / filename
    for leaf in _leaf_paths(doc):
        for value in LEAF_VALUES:
            mutated = copy.deepcopy(doc)
            parent = mutated
            for key in leaf[:-1]:
                parent = parent[key]
            parent[leaf[-1]] = value
            path.write_text(json.dumps(mutated))
            case = (leaf, value)
            code = cli.main([*flags, "-i", str(path), *command])
            out, err = capsys.readouterr()
            assert code in (0, 1, 2) and err == "", case
            assert out.count("\n") == 1 and out.endswith("\n"), case
            json.loads(out)


def test_subjects_over_an_invalid_subject_are_not_checked(tmp_path):
    """A module over an invalid category, and a functor over that module, each
    report one invalid-dependency entry instead of a crash in their checks."""
    doc = json.loads(Path(_bundled_path("vec_z2_omega.json")).read_text())
    doc["categories"]["vec_z2_omega"]["unit"] = "tau"
    path = tmp_path / "vec_z2_omega.json"
    path.write_text(json.dumps(doc))
    result = cli.run(["validate"], cli.load([str(path)])).payload["result"]
    assert result["module vec_z2_omega_regular"] == [
        "invalid-dependency at (vec_z2_omega): invalid category"]
    for name in ("id_vec_z2_omega_regular", "rmul_vec_z2_omega_e", "rmul_vec_z2_omega_s"):
        assert result[f"functor {name}"] == [
            "invalid-dependency at (vec_z2_omega_regular): invalid module"]


def test_nat_both_report(bundle):
    rep = cli.run(["nat", "id_vec_z2_triv_regular", "id_vec_z2_triv_regular",
                   "--both"], bundle)
    assert rep.payload["result"] == {"dim": 1, "mode": "both", "oracle_agrees": True}
    assert rep.payload["status"] == "ok"


def test_end_ordinary_and_restrict(bundle):
    rep = cli.run(["end", "--hom", "id_vec_z2_triv_regular",
                   "id_vec_z2_triv_regular", "--ordinary"], bundle)
    assert rep.payload["result"] == {"dim": 2}
    rep = cli.run(["end", "--hom", "id_vec_z4_regular", "id_vec_z4_regular",
                   "--restrict", "0,2"], bundle)
    assert rep.payload["result"] == {"dim": 2}


def test_character_report(bundle):
    rep = cli.run(["character", "vec_z2_triv_regular", "id_vec_z2_triv_regular"],
                  bundle)
    assert rep.payload["result"] == {"object": {"e": 1, "s": 0}}


def test_coend_report(bundle):
    rep = cli.run(["coend", "--hom", "id_vec_z2_omega_regular",
                   "id_vec_z2_omega_regular"], bundle)
    assert rep.payload["result"]["dim"] == 1


GOLDEN = json.loads((Path(__file__).parent / "golden_reports.json").read_text())


def test_golden_reports(bundle):
    """Status and result of fixed commands match the recorded reports.

    ``inputs`` (basename to sha256 of each corpus file) is not recorded here;
    ``test_reports_do_not_depend_on_the_input_directory`` covers it.
    """
    for entry in GOLDEN:
        payload = json.loads(cli.run(entry["command"], bundle).dumps())
        assert (payload["status"], payload["result"]) == (entry["status"], entry["result"]), \
            entry["command"]


def test_report_determinism(bundle):
    cmd = ["serre", "vec_z2_triv_regular"]
    out1 = cli.run(cmd, bundle).dumps()
    bundle2 = cli.load(cli.bundled_instance_paths())
    out2 = cli.run(cmd, bundle2).dumps()
    assert out1 == out2


def test_reports_do_not_depend_on_the_input_directory(tmp_path, capsys):
    """A copy of the corpus elsewhere gives the same stdout, ``inputs`` included."""
    copies = []
    for path in cli.bundled_instance_paths():
        copies.append(tmp_path / Path(path).name)
        copies[-1].write_bytes(Path(path).read_bytes())
    cmd = ["serre", "vec_z2_omega_regular"]
    assert cli.main(cmd) == 0
    bundled = capsys.readouterr().out
    assert cli.main([arg for p in copies for arg in ("-i", str(p))] + cmd) == 0
    assert capsys.readouterr().out == bundled
    assert sorted(json.loads(bundled)["inputs"]) == sorted(p.name for p in copies)


def test_same_basename_different_contents_is_a_parse_error(tmp_path, capsys):
    fib = next(p for p in cli.bundled_instance_paths() if p.endswith("fib.json"))
    (tmp_path / "other").mkdir()
    clash = tmp_path / "other" / "fib.json"
    clash.write_text(_mutated_fib(lambda c: c["f_symbols"][0].update(value="2")))
    with pytest.raises(ParseError):
        cli.load([fib, str(clash)])
    assert cli.main(["-i", fib, "-i", str(clash), "validate"]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "validation-failed"


def test_main_exit_codes(tmp_path, capsys):
    assert cli.main(["character", "vec_z2_triv_regular",
                     "id_vec_z2_triv_regular"]) == 0
    capsys.readouterr()
    assert cli.main(["nat", "no_such_functor", "also_missing"]) == 1
    capsys.readouterr()
    assert cli.main(["end", "--hom", "id_vec_z4_regular", "id_vec_z4_regular",
                     "--restrict", "0,1"]) == 1
    capsys.readouterr()
    # functors over different modules: one JSON line, not a traceback
    assert cli.main(["coend", "--hom", "id_vec_z4_regular", "rmul_fib_1"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "validation-failed"
    # a functor on another module has no internal character here
    assert cli.main(["character", "vec_over_vec_z2", "id_fib_regular"]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "validation-failed"
    # a label that is not a simple of the base is not an upsilon probe
    assert cli.main(["upsilon", "fib", "nope"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "'nope' is not a simple of the base", "status": "validation-failed"}
    # a c-block entry between different simples: one JSON line, not a traceback
    paths = {Path(p).name: p for p in cli.bundled_instance_paths()}
    with open(paths["vec_over_vec_z2.json"]) as fh:
        doc = json.load(fh)
    for entry in doc["functors"]["forgetful"]["c_symbols"]:
        if entry["key"] == ["e", "m"]:
            entry["entries"] = [["1", "1"], ["0", "1"]]
    off_schur = tmp_path / "vec_over_vec_z2.json"
    off_schur.write_text(json.dumps(doc))
    assert cli.main(["-i", paths["vec_z2_triv.json"], "-i", str(off_schur), "validate"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["status"] == "validation-failed"
    assert report["result"]["functor forgetful"] == [
        "c-block-schur at (e, m): entries between different simples must be 0"]


def test_restrict_error_is_deterministic():
    """The subcategory check reports the same violation under every hash seed."""
    src = str(Path(cli.__file__).resolve().parents[1])
    cmd = [sys.executable, "-m", "modend", "end", "--hom", "id_vec_z4_regular",
           "id_vec_z4_regular", "--restrict", "0,1,3"]
    outs = {subprocess.run(cmd, capture_output=True, text=True, check=False,
                           env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)}
                           ).stdout for seed in range(4)}
    assert outs == {'{"error":"not fusion-closed at (1,1)","status":"validation-failed"}\n'}


BAD_COMMAND_LINES = {
    "serre": "serre: missing argument M",
    "homsuite": "homsuite: missing argument M",
    "character fib_regular": "character: missing argument U",
    "upsilon fib": "upsilon: missing argument X",
    "nat id_fib_regular": "nat: missing argument G",
    "end --hom id_fib_regular": "end: --hom is missing argument G",
    "end --hom F G --restrict": "end: --restrict is missing argument LABELS",
    "character id_fib_regular id_fib_regular":
        "character: argument M: no module 'id_fib_regular'",
    "nat id_fib_regular id_fib_regular rmul_fib_tau": "nat: unexpected argument 'rmul_fib_tau'",
    "nat id_fib_regular id_fib_regular --bogus": "nat: unknown option --bogus",
    "nat id_fib_regular id_fib_regular --both --oracle": "nat: --oracle conflicts with --both",
    "coend --hom id_fib_regular id_fib_regular --restrict 1": "coend: unknown option --restrict",
    "serre fib_regular extra": "serre: unexpected argument 'extra'",
    "upsilon fib tau extra": "upsilon: unexpected argument 'extra'",
    "end": "end: missing option --hom",
    "end --ordinary": "end: missing option --hom",
    "coend": "coend: missing option --hom",
}


def test_bad_command_lines_give_one_json_line():
    """A missing argument or a name of the wrong kind is a validation failure,
    never a traceback."""
    src = str(Path(cli.__file__).resolve().parents[1])
    for command, error in BAD_COMMAND_LINES.items():
        proc = subprocess.run([sys.executable, "-m", "modend", *command.split()],
                              capture_output=True, text=True, check=False,
                              env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stderr) == (1, ""), command
        assert proc.stdout.count("\n") == 1, command
        assert json.loads(proc.stdout) == {"error": error,
                                           "status": "validation-failed"}, command


def test_command_table_of_the_docs_is_the_usage(capsys):
    """docs/format.md lists exactly the usage lines the parser checks and ``--help`` prints."""
    lines = [cli.usage_line(op) for op in cli.USAGE]
    doc = (Path(__file__).resolve().parents[1] / "docs" / "format.md").read_text()
    table = doc.split("| command | result |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    assert [row.split("`")[1].replace("\\|", "|") for row in table.splitlines()] == lines
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    assert " | ".join(lines) in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command", [["upsilon", "fib", "tau"], ["adjshift", "fib", "tau"]])
def test_regular_module_probes_need_only_the_category(tmp_path, command):
    """upsilon and adjshift build the regular module from the category alone."""
    category_only = tmp_path / "fib.json"
    category_only.write_text(_mutated_fib(lambda c: None, category_only=True))
    full = cli.load([_bundled_path("fib.json")])
    alone = cli.load([str(category_only)])
    assert not alone.modules
    assert cli.run(command, alone).payload["result"] == cli.run(command, full).payload["result"]


def test_suite_needs_only_the_categories(tmp_path, capsys):
    """suite builds each category's regular module, identity and right multiplications."""
    category_only = tmp_path / "fib.json"
    category_only.write_text(_mutated_fib(lambda c: None, category_only=True))
    assert cli.main(["-i", str(category_only), "suite"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "ok"
    full = cli.run(["suite"], cli.load([_bundled_path("fib.json")])).payload["result"]
    assert report["result"] == {k: v for k, v in full.items()
                                if not k.startswith(("validate::module", "validate::functor", "homsuite::"))}


def test_character_of_a_functor_off_the_regular_module(tmp_path, capsys):
    """A character functor that does not land in the base's regular module is refused."""
    ident = tmp_path / "ident.json"
    ident.write_text(json.dumps({"functors": {"id_m": {"type": "identity",
                                                       "module": "vec_over_vec_z2"}}}))
    files = [_bundled_path("vec_z2_triv.json"), _bundled_path("vec_over_vec_z2.json"),
             str(ident)]
    code = cli.main([arg for path in files for arg in ("-i", path)]
                    + ["character", "vec_over_vec_z2", "id_m"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1 and len(lines) == 1
    assert json.loads(lines[0]) == {
        "status": "validation-failed",
        "error": "functor 'id_m' must land in the regular module of the base"}


def test_suite_pristine_exit_zero(bundle):
    lines, ok = cli.run_suite(bundle)
    assert ok
    assert all(v.startswith("pass") for v in lines.values())


def _mutated_bundle(tmp_path, filename, mutate):
    """Load the corpus with one file's JSON transformed by ``mutate``."""
    paths = cli.bundled_instance_paths()
    out = []
    for p in paths:
        if p.endswith(filename):
            doc = json.loads(open(p).read())
            mutate(doc)
            q = tmp_path / filename
            q.write_text(json.dumps(doc))
            out.append(str(q))
        else:
            out.append(p)
    return cli.load(out)


# Documented single-scalar mutations; each must flip `suite` to failure.
def _mut_fib_f(doc):
    entry = next(e for e in doc["categories"]["fib"]["f_symbols"]
                 if e["key"] == ["tau", "tau", "tau", "tau", "1", "1"])
    entry["value"] = "2"


def _mut_omega_f(doc):
    doc["categories"]["vec_z2_omega"]["f_symbols"][0]["value"] = "2"


def _mut_ising_f(doc):
    entry = next(e for e in doc["categories"]["ising"]["f_symbols"]
                 if e["key"] == ["psi", "sigma", "psi", "sigma", "sigma", "sigma"])
    entry["value"] = "1"


def _mut_forgetful_c(doc):
    entry = next(e for e in doc["functors"]["forgetful"]["c_symbols"]
                 if e["key"] == ["s", "m"])
    entry["entries"][0][1] = "-1"


def _mut_module_l(doc):
    doc["modules"]["vec_over_vec_z2"]["l_symbols"] = [
        {"key": ["e", "s", "m", "m", "s", "m"], "value": "-1"}]


def _mut_unit_scalar(doc):
    doc["modules"]["vec_over_vec_z2"]["unit_scalars"] = {"m": "2"}


MUTATIONS = [
    ("fib.json", _mut_fib_f, "fib F[tau,tau,tau;tau]_{1,1} -> 2 breaks the pentagon"),
    ("vec_z2_omega.json", _mut_omega_f, "omega cocycle value -> 2 breaks the pentagon"),
    ("ising.json", _mut_ising_f, "ising F[psi,sigma,psi] sign flip breaks the pentagon"),
    ("vec_over_vec_z2.json", _mut_forgetful_c,
     "forgetful c_{s,m} entry sign flip breaks functor coherence"),
    ("vec_over_vec_z2.json", _mut_module_l,
     "unit-legged L-symbol sign flip breaks the mixed pentagon"),
    ("vec_over_vec_z2.json", _mut_unit_scalar,
     "unit scalar 2 breaks unit coherence"),
]


@pytest.mark.parametrize("filename,mutate,reason",
                         MUTATIONS, ids=[m[2][:40] for m in MUTATIONS])
def test_mutation_flips_suite(tmp_path, filename, mutate, reason):
    mutated = _mutated_bundle(tmp_path, filename, mutate)
    lines, ok = cli.run_suite(mutated)
    assert not ok, reason


def test_main_suite_exit_codes(tmp_path, capsys):
    assert cli.main(["suite"]) == 0
    capsys.readouterr()
    # a perturbed scalar flips the suite exit code to 2
    paths = cli.bundled_instance_paths()
    mutated = []
    for p in paths:
        if p.endswith("fib.json"):
            doc = json.loads(open(p).read())
            _mut_fib_f(doc)
            q = tmp_path / "fib.json"
            q.write_text(json.dumps(doc))
            mutated.append(str(q))
        else:
            mutated.append(p)
    flags = []
    for m in mutated:
        flags.extend(["-i", m])
    assert cli.main([*flags, "suite"]) == 2
    capsys.readouterr()


def test_right_orientation_module_round_trip(tmp_path):
    """Opposite-module data survives a JSON round trip and revalidates."""
    from fractions import Fraction
    from helpers import fib
    from modend.modcat import opposite_module, regular_module, validate_module

    spec = fib()
    op = opposite_module(regular_module(spec))

    def fmt(e):
        if not any(e.coeffs[1:]):
            return str(e.coeffs[0])
        return [str(c) for c in e.coeffs]

    doc = {
        "categories": {"fib": json.loads(open(
            [p for p in cli.bundled_instance_paths() if p.endswith("fib.json")][0]
        ).read())["categories"]["fib"]},
        "modules": {"fib_op": {
            "type": "explicit", "category": "fib", "orientation": "right",
            "simples": list(op.simples),
            "action": [list(t) for t in sorted(op.action)],
            "l_symbols": [{"key": list(k), "value": fmt(v)}
                          for k, v in sorted(op._l.items())],
            "unit_scalars": {i: fmt(op.unit_scalars[i]) for i in op.simples},
        }},
    }
    path = tmp_path / "fib_op.json"
    path.write_text(json.dumps(doc))
    bundle = cli.load([str(path)])
    loaded = bundle.module("fib_op")
    assert loaded.orientation == "right"
    assert validate_module(loaded).ok
    assert loaded.action == op.action
    assert loaded._l == op._l
