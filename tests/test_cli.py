import copy
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import act_right_composite, bench_gen, fib, gauge_module
from modend import cli
from modend.common import ParseError, UnknownName
from modend.modcat import opposite_module, regular_module, validate_module
from modend.modfunct import act_right_functor
from modend.scalarfield import FieldSpec, as_fraction


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


def test_a_dangling_reference_names_both_sides(tmp_path, capsys):
    """A module over an absent category and a functor over an absent module
    are each one JSON error, exit 1, naming the referrer and what is missing."""
    functor = tmp_path / "functor.json"
    functor.write_text(json.dumps(
        {"functors": {"id_orphan": {"type": "identity", "module": "orphan"}}}))
    cases = (([_bundled_path("vec_over_vec_z2.json")],
              "module 'vec_over_vec_z2': no category 'vec_z2_triv'"),
             ([_bundled_path("fib.json"), str(functor)],
              "functor 'id_orphan': no module 'orphan'"))
    for paths, error in cases:
        with pytest.raises(UnknownName, match=f"^{error}$"):
            cli.load(paths)
        assert cli.main([a for p in paths for a in ("-i", p)] + ["validate"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            json.dumps({"error": error, "status": "validation-failed"}, separators=(",", ":"))]


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


def _forgetful(doc):
    return doc["functors"]["forgetful"]


def _repeat_first(section, **changes):
    """Append the first entry of ``section`` again, with ``changes``."""
    first = section[0]
    section.append({**first, **changes} if isinstance(first, dict) else first)


# file to edit, how, and the error the loader gives for it
LOADER_REFUSALS = {
    "multiplicity-1.7": ("vec_over_vec_z2.json",
                         lambda d: _forgetful(d)["on_simples"][0].update(value=1.7),
                         "functor 'forgetful': ValueError: on_simples ['m', 'e']: 1.7 is not "
                         "a non-negative integer"),
    "multiplicity-true": ("vec_over_vec_z2.json",
                          lambda d: _forgetful(d)["on_simples"][0].update(value=True),
                          "on_simples ['m', 'e']: True is not a non-negative integer"),
    "multiplicity-negative": ("vec_over_vec_z2.json",
                              lambda d: _forgetful(d)["on_simples"][1].update(value=-1),
                              "on_simples ['m', 's']: -1 is not a non-negative integer"),
    "multiplicity-string": ("vec_over_vec_z2.json",
                            lambda d: _forgetful(d)["on_simples"][1].update(value="1"),
                            "on_simples ['m', 's']: '1' is not a non-negative integer"),
    "f-symbol-true": ("vec_z2_omega.json",
                      lambda d: d["categories"]["vec_z2_omega"]["f_symbols"][0].update(value=True),
                      "category 'vec_z2_omega': TypeError: not an exact rational: True"),
    "f-coefficient-false": ("fib.json",
                            lambda d: d["categories"]["fib"]["f_symbols"][0]["value"].__setitem__(
                                0, False),
                            "category 'fib': TypeError: not an exact rational: False"),
    "unit-scalar-true": ("vec_over_vec_z2.json",
                         lambda d: d["modules"]["vec_over_vec_z2"].update(unit_scalars={"m": True}),
                         "module 'vec_over_vec_z2': TypeError: not an exact rational: True"),
    "c-entry-false": ("vec_over_vec_z2.json",
                      lambda d: _forgetful(d)["c_symbols"][0]["entries"][0].__setitem__(0, False),
                      "functor 'forgetful': TypeError: not an exact rational: False"),
    "repeated-f-symbol": ("vec_z2_omega.json",
                          lambda d: _repeat_first(d["categories"]["vec_z2_omega"]["f_symbols"],
                                                  value="1"),
                          "category 'vec_z2_omega': ValueError: f_symbols key "
                          "['s', 's', 's', 's', 'e', 'e'] is repeated"),
    "repeated-l-symbol": ("vec_over_vec_z2.json",
                          lambda d: d["modules"]["vec_over_vec_z2"].update(l_symbols=[
                              {"key": ["s", "s", "m", "m", "e", "m"], "value": "2"},
                              {"key": ["s", "s", "m", "m", "e", "m"], "value": "1"}]),
                          "module 'vec_over_vec_z2': ValueError: l_symbols key "
                          "['s', 's', 'm', 'm', 'e', 'm'] is repeated"),
    "repeated-c-symbol": ("vec_over_vec_z2.json",
                          lambda d: _repeat_first(_forgetful(d)["c_symbols"],
                                                  entries=[["1", "1"], ["0", "1"]]),
                          "functor 'forgetful': ValueError: c_symbols key ['e', 'm'] is repeated"),
    "repeated-on-simples": ("vec_over_vec_z2.json",
                            lambda d: _repeat_first(_forgetful(d)["on_simples"], value=0),
                            "functor 'forgetful': ValueError: on_simples key ['m', 'e'] is "
                            "repeated"),
    "simples-string": ("vec_z4.json",
                       lambda d: d["categories"]["vec_z4"].update(simples="0123"),
                       "category 'vec_z4': ValueError: simples '0123' is not a JSON list of "
                       "strings"),
    "simples-integers": ("vec_z4.json",
                         lambda d: d["categories"]["vec_z4"].update(simples=[0, 1, 2, 3]),
                         "category 'vec_z4': ValueError: simples [0, 1, 2, 3] is not a JSON "
                         "list of strings"),
    "module-simples-string": ("vec_over_vec_z2.json",
                              lambda d: d["modules"]["vec_over_vec_z2"].update(simples="m"),
                              "module 'vec_over_vec_z2': ValueError: simples 'm' is not a JSON "
                              "list of strings"),
    "repeated-fusion-triple": ("vec_z4.json",
                               lambda d: _repeat_first(d["categories"]["vec_z4"]["fusion"]),
                               "category 'vec_z4': ValueError: fusion triple ['0', '0', '0'] is "
                               "repeated"),
    "repeated-action-triple": ("vec_over_vec_z2.json",
                               lambda d: _repeat_first(d["modules"]["vec_over_vec_z2"]["action"]),
                               "module 'vec_over_vec_z2': ValueError: action triple "
                               "['e', 'm', 'm'] is repeated"),
    "action-triple-short": ("vec_over_vec_z2.json",
                            lambda d: d["modules"]["vec_over_vec_z2"]["action"].__setitem__(
                                0, ["e", "m"]),
                            "module 'vec_over_vec_z2': ValueError: action triple ['e', 'm'] "
                            "does not have 3 labels"),
    "action-triple-long": ("vec_over_vec_z2.json",
                           lambda d: d["modules"]["vec_over_vec_z2"]["action"].__setitem__(
                               0, ["e", "m", "m", "m"]),
                           "module 'vec_over_vec_z2': ValueError: action triple "
                           "['e', 'm', 'm', 'm'] does not have 3 labels"),
    "fusion-triple-short": ("fib.json",
                            lambda d: d["categories"]["fib"]["fusion"].__setitem__(0, ["1", "1"]),
                            "category 'fib': ValueError: fusion triple ['1', '1'] does not have "
                            "3 labels"),
    "f-key-string": ("vec_z2_omega.json",
                     lambda d: d["categories"]["vec_z2_omega"]["f_symbols"][0].update(
                         key="ssssee"),
                     "category 'vec_z2_omega': ValueError: f_symbols key 'ssssee' is not a JSON "
                     "list of strings"),
    "on-simples-key-string": ("vec_over_vec_z2.json",
                              lambda d: _forgetful(d)["on_simples"][0].update(key="me"),
                              "functor 'forgetful': ValueError: on_simples key 'me' is not a "
                              "JSON list of strings"),
    "fusion-strings": ("vec_z2_omega.json",
                       lambda d: d["categories"]["vec_z2_omega"].update(
                           fusion=["eee", "ess", "ses", "sse"]),
                       "category 'vec_z2_omega': ValueError: fusion triple 'eee' is not a JSON "
                       "list of strings"),
    "action-string": ("vec_over_vec_z2.json",
                      lambda d: d["modules"]["vec_over_vec_z2"]["action"].__setitem__(0, "emm"),
                      "module 'vec_over_vec_z2': ValueError: action triple 'emm' is not a JSON "
                      "list of strings"),
    "f-symbol-entry-string": ("vec_z2_omega.json",
                              lambda d: d["categories"]["vec_z2_omega"].update(f_symbols=["x"]),
                              "category 'vec_z2_omega': ValueError: f_symbols entry 'x' is not a "
                              "JSON object"),
    "f-symbols-object": ("vec_z2_omega.json",
                         lambda d: d["categories"]["vec_z2_omega"].update(f_symbols={"key": []}),
                         "category 'vec_z2_omega': ValueError: f_symbols must be a JSON list"),
    "fusion-object": ("vec_z2_omega.json",
                      lambda d: d["categories"]["vec_z2_omega"].update(fusion={}),
                      "category 'vec_z2_omega': ValueError: fusion must be a JSON list"),
    "dual-list": ("vec_z2_omega.json",
                  lambda d: d["categories"]["vec_z2_omega"].update(dual=["e", "s"]),
                  "category 'vec_z2_omega': ValueError: dual must be a JSON object"),
    "field-list": ("vec_z2_omega.json",
                   lambda d: d["categories"]["vec_z2_omega"].update(field=["0", "1"]),
                   "category 'vec_z2_omega': ValueError: field must be a JSON object"),
    "unit-scalars-list": ("vec_over_vec_z2.json",
                          lambda d: d["modules"]["vec_over_vec_z2"].update(unit_scalars=["1"]),
                          "module 'vec_over_vec_z2': ValueError: unit_scalars must be a JSON "
                          "object"),
    "c-symbols-object": ("vec_over_vec_z2.json",
                         lambda d: _forgetful(d).update(c_symbols={}),
                         "functor 'forgetful': ValueError: c_symbols must be a JSON list"),
    "c-entries-object": ("vec_over_vec_z2.json",
                         lambda d: _forgetful(d)["c_symbols"][0].update(entries={}),
                         "functor 'forgetful': ValueError: c_symbols ['e', 'm']: {} is not a "
                         "JSON list of equal-length rows"),
    "c-entries-string": ("vec_over_vec_z2.json",
                         lambda d: _forgetful(d)["c_symbols"][0].update(entries="11"),
                         "functor 'forgetful': ValueError: c_symbols ['e', 'm']: '11' is not a "
                         "JSON list of equal-length rows"),
    # 6 entries in 3 rows, 3 x len(first row): a flattener that checks the count reshapes them
    "c-entries-ragged": ("vec_over_vec_z2.json",
                         lambda d: _forgetful(d)["c_symbols"][0].update(
                             entries=[["1", "0"], ["0"], ["1", "0", "0"]]),
                         "functor 'forgetful': ValueError: c_symbols ['e', 'm']: [['1', '0'], "
                         "['0'], ['1', '0', '0']] is not a JSON list of equal-length rows"),
    "on-simples-entry-without-value": ("vec_over_vec_z2.json",
                                       lambda d: _forgetful(d)["on_simples"][0].pop("value"),
                                       "functor 'forgetful': ValueError: on_simples entry "
                                       "{'key': ['m', 'e']} does not hold just 'key' and 'value'"),
    "min-poly-string": ("vec_z2_omega.json",
                        lambda d: d["categories"]["vec_z2_omega"]["field"].update(min_poly="x"),
                        "category 'vec_z2_omega': ValueError: field.min_poly: 'x' is not a JSON "
                        "list of rationals"),
    "f-symbols-misspelt": ("vec_z2_omega.json",
                           lambda d: d["categories"]["vec_z2_omega"].update(
                               f_symbol=d["categories"]["vec_z2_omega"].pop("f_symbols")),
                           "category 'vec_z2_omega': ValueError: unknown key 'f_symbol'"),
    "field-key-misspelt": ("vec_z2_omega.json",
                           lambda d: d["categories"]["vec_z2_omega"].update(
                               field={"minpoly": ["0", "1"]}),
                           "category 'vec_z2_omega': ValueError: field: unknown key 'minpoly'"),
    "missing-simples": ("vec_over_vec_z2.json",
                        lambda d: d["modules"]["vec_over_vec_z2"].pop("simples"),
                        "module 'vec_over_vec_z2': ValueError: missing key 'simples'"),
    "unknown-module-type": ("vec_over_vec_z2.json",
                            lambda d: d["modules"]["vec_over_vec_z2"].update(type="bogus"),
                            "module 'vec_over_vec_z2': ValueError: unknown module type 'bogus'"),
    "unit-integer": ("vec_z2_omega.json",
                     lambda d: d["categories"]["vec_z2_omega"].update(unit=0),
                     "category 'vec_z2_omega': ValueError: unit: 0 is not a JSON string"),
    "dual-value-integer": ("vec_z2_omega.json",
                           lambda d: d["categories"]["vec_z2_omega"]["dual"].update(e=0),
                           "category 'vec_z2_omega': ValueError: dual value: 0 is not a JSON "
                           "string"),
    "section-misspelt": ("vec_z2_omega.json",
                         lambda d: d.update(categoriess=d.pop("categories")),
                         "top level must be a JSON object of categories, modules, functors"),
}


@pytest.mark.parametrize("case", sorted(LOADER_REFUSALS))
def test_loader_refusals_give_one_json_line(tmp_path, capsys, case):
    """A multiplicity that is not a non-negative JSON integer, a boolean given
    as a scalar, a key repeated in one section, ``simples``, a key or a
    triple that is not a JSON list of strings (a string is not read as its
    characters), a fusion or action triple without 3 labels or given twice,
    a section of the wrong JSON type, a key the format does not list and a
    required key that is missing are each refused at load time: one JSON
    line naming the entity and the key, value or section, exit code 1."""
    filename, mutate, error = LOADER_REFUSALS[case]
    doc = json.loads(Path(_bundled_path(filename)).read_text())
    mutate(doc)
    path = tmp_path / filename
    path.write_text(json.dumps(doc))
    beside = ["-i", _bundled_path("vec_z2_triv.json")] if filename.startswith("vec_over") else []
    assert cli.main([*beside, "-i", str(path), "validate"]) == 1
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    report = json.loads(out)
    assert report["status"] == "validation-failed"
    assert error in report["error"], report["error"]


def test_a_key_repeated_in_one_json_object_is_refused(tmp_path, capsys):
    """``{"m": "0", "m": "1"}`` is refused at load time with one JSON line and
    exit code 1; the last value is not kept silently."""
    doc = json.loads(Path(_bundled_path("vec_over_vec_z2.json")).read_text())
    doc["modules"]["vec_over_vec_z2"]["unit_scalars"] = "UNITS"
    path = tmp_path / "vec_over_vec_z2.json"
    path.write_text(json.dumps(doc).replace('"UNITS"', '{"m": "0", "m": "1"}'))
    base = _bundled_path("vec_z2_triv.json")
    assert cli.main(["-i", base, "-i", str(path), "validate"]) == 1
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert json.loads(out) == {"status": "validation-failed",
                               "error": f"{path}: key 'm' is repeated in one JSON object"}


# one value of each JSON type, the JSON types each leaf of cli.SHAPES takes (the
# other leaves are lists), and the items of each leaf that is a list; "rational"
# and "row" are the items of a list of rationals and of c-block rows
JSON_VALUES = {"string": "q", "number": 2, "boolean": True, "null": None, "array": [],
               "object": {}}
SHAPE_TYPES = {cli.STRING: {"string"}, cli.COUNT: {"number"}, "rational": {"number", "string"},
               cli.ELEMENT: {"number", "string", "array"}}
LIST_ITEMS = {cli.STRINGS: cli.STRING, cli.RATIONALS: "rational", cli.ROWS: "row",
              "row": cli.ELEMENT, cli.ELEMENT: "rational"}
DELETE = object()


def _value_cases(shape, value, path):
    """``(path, replacement)``: each JSON type ``shape`` does not take, then the
    cases inside ``value``: the keys of an object and the first item of a list
    or map."""
    if type(shape) is tuple:
        takes = {"object"} if shape[0] in ("map", "object") else {"array"}
    else:
        takes = SHAPE_TYPES.get(shape, {"array"})
    for json_type, wrong in JSON_VALUES.items():
        if json_type not in takes:
            yield path, wrong
    if type(shape) is tuple and shape[0] == "object":
        yield from _key_cases(cli.SHAPES[shape[2], None], value, path)
    elif type(shape) is tuple and shape[0] == "map" and value:
        label = next(iter(value))
        yield from _value_cases(shape[2], value[label], path + (label,))
    elif type(value) is list and value:
        if type(shape) is tuple and shape[0] == "keyed list":
            yield from ((path + (0,), w) for t, w in JSON_VALUES.items() if t != "object")
            yield from _key_cases({"key": cli.STRINGS, shape[1]: shape[2]}, value[0], path + (0,))
        else:
            item = shape[2] if type(shape) is tuple else LIST_ITEMS[shape]
            yield from _value_cases(item, value[0], path + (0,))


def _key_cases(form: dict, node: dict, path=()):
    """The cases of ``_value_cases`` at each key of ``form`` in ``node``, and the
    key deleted where ``form`` requires it."""
    for key, shape in form.items():
        name = key.rstrip("?")
        if name in node:
            if not key.endswith("?"):
                yield path + (name,), DELETE
            yield from _value_cases(shape, node[name], path + (name,))


def test_every_wrong_json_type_the_table_refuses_is_a_parse_error(tmp_path):
    """At each key that ``SHAPES`` lists in each corpus entity, and at the first
    item of each list or map under it, every JSON type the table does not give
    that value loads as a ParseError, and so does deleting a required key."""
    paths = cli.bundled_instance_paths()
    seen, count = set(), 0
    for path in paths:
        doc = json.loads(Path(path).read_text())
        others, mutated = [p for p in paths if p != path], tmp_path / Path(path).name
        for section, (kind, _) in cli.SECTIONS.items():
            for name, data in doc.get(section, {}).items():
                kind_type = None if kind == "category" else data.get("type", "explicit")
                seen.add((kind, kind_type))
                for where, new in _key_cases(cli.SHAPES[kind, kind_type], data):
                    case = copy.deepcopy(doc)
                    node = case[section][name]
                    for step in where[:-1]:
                        node = node[step]
                    if new is DELETE:
                        del node[where[-1]]
                    else:
                        node[where[-1]] = new
                    mutated.write_text(json.dumps(case))
                    with pytest.raises(ParseError):
                        cli.load([*others, str(mutated)])
                    count += 1
    assert seen == {kind_type for kind_type in cli.SHAPES if kind_type[0] != "field"}
    assert count > 500


def test_the_format_docs_show_every_key_of_the_table():
    """The three ``json`` blocks of docs/format.md, each wrapped in ``{}``, pass
    the walker, and the keys they show, by kind and type, are the table's."""
    text = (Path(__file__).resolve().parents[1] / "docs" / "format.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", text, re.S)
    assert len(blocks) == 3
    shown = set()
    for block in blocks:
        for section, entities in json.loads("{" + block + "}").items():
            kind = cli.SECTIONS[section][0]
            for data in entities.values():
                values = cli._walk(kind, data, lambda v: v.get("field", FieldSpec(["0", "1"])))
                kind_type = None if kind == "category" else data.get("type", "explicit")
                shown |= {(kind, kind_type, key) for key in data}
                if kind == "category":
                    assert values["field"].degree == 4
                    shown |= {("field", None, key) for key in data["field"]}
    assert shown == {(*kind_type, key.rstrip("?"))
                     for kind_type, form in cli.SHAPES.items() for key in form}


def test_importing_the_cli_loads_no_path_or_temp_file_helpers():
    """``import modend.cli`` under ``python -S`` leaves ``importlib.resources``,
    ``tempfile``, ``pathlib`` and ``shutil`` unloaded: the corpus is listed with
    ``os`` alone.  The pin depends on which modules load, not on speed."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, modend.cli; print(sorted(set(sys.modules) & "
            "{'importlib.resources', 'tempfile', 'pathlib', 'shutil'}))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out == "[]\n"


def _unknown_keys(doc):
    doc["modules"]["vec_over_vec_z2"]["unit_scalars"] = {"m": "1", "q": "2"}
    _forgetful(doc)["on_simples"].append({"key": ["m", "nope"], "value": 0})
    _forgetful(doc)["c_symbols"].append({"key": ["nope", "m"], "entries": []})


def test_keys_on_labels_that_do_not_exist_are_reported(tmp_path, capsys):
    """A ``unit_scalars`` key that is not a module simple, and an ``on_simples``
    or ``c_symbols`` key outside the functor's simples, are report entries, as
    an inadmissible L-symbol is."""
    doc = json.loads(Path(_bundled_path("vec_over_vec_z2.json")).read_text())
    _unknown_keys(doc)
    path = tmp_path / "vec_over_vec_z2.json"
    path.write_text(json.dumps(doc))
    base = _bundled_path("vec_z2_triv.json")
    assert cli.main(["-i", base, "-i", str(path), "validate"]) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["module vec_over_vec_z2"] == ["unknown-unit-scalar at (q)"]
    doc["modules"]["vec_over_vec_z2"].pop("unit_scalars")
    path.write_text(json.dumps(doc))
    assert cli.main(["-i", base, "-i", str(path), "validate"]) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["module vec_over_vec_z2"] == "valid"
    assert result["functor forgetful"] == ["unknown-on-simples-key at (m, nope)",
                                           "unknown-c-key at (nope, m)"]


def _leaf_paths(node, path=()):
    """Key paths of the scalar leaves of a JSON document, in document order."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _leaf_paths(child, path + (key,))
    else:
        yield path


def _scalar_json(e):
    """A field element as the instance format writes it."""
    if not any(e.coeffs[1:]):
        return str(e.coeffs[0])
    return [str(c) for c in e.coeffs]


def _module_entry(module, category: str) -> dict:
    """The explicit instance-file entry of a module over the named category."""
    return {"type": "explicit", "category": category, "orientation": module.orientation,
            "simples": list(module.simples),
            "action": [list(t) for t in sorted(module.action)],
            "l_symbols": [{"key": list(k), "value": _scalar_json(v)}
                          for k, v in sorted(module._l.items())],
            "unit_scalars": {i: _scalar_json(module.unit_scalars[i]) for i in module.simples}}


def _opposite_vov_doc() -> dict:
    """A file holding the right module opposite to vec_over_vec_z2."""
    vov = cli.load([_bundled_path("vec_z2_triv.json"), _bundled_path("vec_over_vec_z2.json")])
    op = opposite_module(vov.module("vec_over_vec_z2"))
    return {"modules": {op.name: _module_entry(op, "vec_z2_triv")}}


LEAF_VALUES = (0, -1, "1/0", "x", None, [], {}, "s", "e")

# file to mutate, files loaded beside it, command run on the mutated bundle
OPPOSITE_VOV = "vec_over_vec_z2_op.json"
BOUNDARY_SWEEPS = [
    pytest.param("vec_z2_omega.json", (), ["validate"], id="vec_z2_omega.json"),
    pytest.param("vec_over_vec_z2.json", ("vec_z2_triv.json",),
                 ["character", "vec_over_vec_z2", "forgetful"], id="vec_over_vec_z2.json"),
    *(pytest.param(OPPOSITE_VOV, ("vec_z2_triv.json",), [cmd, "vec_over_vec_z2_op"],
                   id=f"{OPPOSITE_VOV}-{cmd}") for cmd in ("homsuite", "serre"))]


@pytest.mark.parametrize("filename,beside,command", BOUNDARY_SWEEPS)
def test_single_leaf_mutations_never_escape(tmp_path, capsys, filename, beside, command):
    """Every single-leaf mutation ends in one JSON line and a documented exit code."""
    doc = (_opposite_vov_doc() if filename == OPPOSITE_VOV
           else json.loads(Path(_bundled_path(filename)).read_text()))
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


def test_a_second_key_of_the_regular_module_keeps_the_first_name(tmp_path):
    """A second ``regular`` entry over one category is the same module: it keeps
    the name of its first key, and a functor over it names that key."""
    doc = json.loads(Path(_bundled_path("fib.json")).read_text())
    doc["categories"]["fib"]["unit"] = "tau"
    doc["modules"]["R2"] = {"type": "regular", "category": "fib"}
    path = tmp_path / "fib.json"
    path.write_text(json.dumps(doc))
    bundle = cli.load([str(path)])
    assert bundle.module("R2") is bundle.module("fib_regular")
    assert bundle.module("R2").name == "fib_regular"
    result = cli.run(["validate"], bundle).payload["result"]
    for name in ("id_fib_regular", "rmul_fib_1", "rmul_fib_tau"):
        assert result[f"functor {name}"] == ["invalid-dependency at (fib_regular): invalid module"]


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


@pytest.mark.parametrize("labels", ["2,zz", "zz"])
def test_restrict_names_an_unknown_label(labels, capsys):
    """A label that is not a simple of the base is named as such, not reported
    as a missing unit."""
    assert cli.main(["end", "--hom", "id_vec_z4_regular", "id_vec_z4_regular",
                     "--restrict", labels]) == 1
    assert capsys.readouterr().out == \
        '{"error":"unknown label zz","status":"validation-failed"}\n'


def test_restrict_reports_a_mismatch_before_a_label(capsys):
    """``end --restrict`` checks that the functors share source and target
    before it reads the labels, which name no simple of the forgetful
    functor's base here."""
    assert cli.main(["end", "--hom", "forgetful", "id_vec_z4_regular",
                     "--restrict", "0,1"]) == 1
    assert capsys.readouterr().out == \
        '{"error":"functors must share source and target","status":"validation-failed"}\n'


@pytest.mark.parametrize("labels,item", [(",", ""), ("", ""), ("0,2,", ""), ("0, 2", " 2")])
def test_restrict_refuses_an_empty_or_padded_item(labels, item, capsys):
    """An empty or padded item of ``--restrict LABELS`` is a usage error that
    names ``LABELS`` and quotes the item, not an unknown label."""
    assert cli.main(["end", "--hom", "id_vec_z4_regular", "id_vec_z4_regular",
                     "--restrict", labels]) == 1
    error = f"end: LABELS item {item!r} is empty or padded"
    assert capsys.readouterr().out == \
        json.dumps({"error": error, "status": "validation-failed"}, separators=(",", ":")) + "\n"


def _random_scalar(rng) -> str:
    """A scalar string as a file might hold it, well formed or not."""
    p, q, k = rng.randint(0, 40), rng.randint(1, 12), rng.randint(-2, 2)
    body = rng.choice((f"{p}", f"{p}/{q}", f"{p}.{q}", f"{p}e{k}", f"{p}/{q}/{q}", f"{p}x"))
    pad = rng.choice(("", " ", "\t"))
    return f"{pad}{rng.choice(('', '-', '+'))}{body}{pad}"


PARSE_EDGES = ("1.5", " 3/4 ", "1e2", "-0", "+2/4", "1/2/3", "1/0", "x", "", "1 /2")


@pytest.mark.parametrize("min_poly", [[0, 1], [-2, 0, 1]])
def test_scalar_strings_parse_once_per_field_as_as_fraction_does(min_poly):
    """``_parse_element`` reads a string as ``as_fraction`` does, a malformed
    one with the same error every time, and a repeated string as the element
    its first read made."""
    field = FieldSpec(min_poly)
    rng = random.Random(2204)
    for text in [*PARSE_EDGES, *(_random_scalar(rng) for _ in range(400))]:
        try:
            want = field.rational(as_fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            for _ in range(2):
                with pytest.raises(type(exc)) as got:
                    cli._parse_element(field, text)
                assert str(got.value) == str(exc), text
            continue
        first = cli._parse_element(field, text)
        assert first == want, text
        assert cli._parse_element(field, text) is first


def test_the_parse_cache_answers_no_boolean(tmp_path, capsys):
    """A ``true`` read after ``"1"`` and ``1`` in one file is still refused:
    ``True == 1``, so a cache keyed by the value would answer for it.  With
    ``"-1"`` in its place the file is valid."""
    doc = json.loads(Path(_bundled_path("vec_z2_omega.json")).read_text())
    f_symbols = doc["categories"]["vec_z2_omega"]["f_symbols"] = [
        {"key": ["e", "e", "e", "e", "e", "e"], "value": "1"},
        {"key": ["e", "s", "s", "e", "s", "e"], "value": 1},
        {"key": ["s", "s", "s", "s", "e", "e"], "value": True}]
    path = tmp_path / "vec_z2_omega.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["-i", str(path), "validate"]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == \
        "category 'vec_z2_omega': TypeError: not an exact rational: True"
    f_symbols[2]["value"] = "-1"
    path.write_text(json.dumps(doc))
    assert cli.main(["-i", str(path), "validate"]) == 0
    capsys.readouterr()


def _singular_fib_blocks(cat):
    """Zero every ``F[tau,tau,tau; tau]`` entry and ``F[tau,tau,tau; 1; tau,tau]``."""
    cat["f_symbols"] = [e for e in cat["f_symbols"] if e["key"][:4] != ["tau"] * 4]
    cat["f_symbols"] += [{"key": ["tau"] * 4 + [e, f], "value": "0"}
                         for e in ("1", "tau") for f in ("1", "tau")]
    cat["f_symbols"].append({"key": ["tau", "tau", "tau", "1", "tau", "tau"], "value": "0"})


def test_validation_entries_do_not_depend_on_the_hash_seed(tmp_path):
    """Two singular F-blocks of one triple are reported in ``simples`` order
    under every hash seed, by ``validate`` and by the gate of other commands."""
    path = tmp_path / "fib.json"
    path.write_text(_mutated_fib(_singular_fib_blocks, category_only=True))
    src = str(Path(cli.__file__).resolve().parents[1])
    for command in (["validate"], ["upsilon", "fib", "tau"]):
        cmd = [sys.executable, "-m", "modend", "-i", str(path), *command]
        outs = {subprocess.run(cmd, capture_output=True, text=True, check=False,
                               env={**os.environ, "PYTHONPATH": src,
                                    "PYTHONHASHSEED": str(seed)}).stdout
                for seed in (1, 2)}
        assert len(outs) == 1, command
        out = outs.pop()
        first = out.index("f-block-singular at")
        assert out.startswith("f-block-singular at (tau, tau, tau, 1)", first), out


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
    "--bogus validate": "unrecognized arguments: --bogus",
    "-x suite": "unrecognized arguments: -x",
    "-i": "argument --instances/-i: expected one argument",
}


# one command error and one parser error, run through ``python -m modend``
BAD_COMMAND_LINES_RUN_AS_MODULE = ("serre", "--bogus validate")


def test_bad_command_lines_give_one_json_line(capsys):
    """A missing argument or a name of the wrong kind is a validation failure,
    never a traceback.  Each line runs in process through ``cli.main``, and
    ``BAD_COMMAND_LINES_RUN_AS_MODULE`` also as ``python -m modend``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    runs = []
    for command in BAD_COMMAND_LINES:
        code = cli.main(command.split())
        runs.append((command, code, *capsys.readouterr()))
    for command in BAD_COMMAND_LINES_RUN_AS_MODULE:
        proc = subprocess.run([sys.executable, "-m", "modend", *command.split()],
                              capture_output=True, text=True, check=False,
                              env={**os.environ, "PYTHONPATH": src})
        runs.append((command, proc.returncode, proc.stdout, proc.stderr))
    for command, code, out, err in runs:
        assert (code, err) == (1, ""), command
        assert out.count("\n") == 1, command
        assert json.loads(out) == {"error": BAD_COMMAND_LINES[command],
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


def _count_sweeps(monkeypatch) -> list:
    """Names of the subjects ``validate_module``/``validate_functor`` check, in call order."""
    swept = []
    for name in ("validate_module", "validate_functor"):
        def counting(spec, _validate=getattr(cli, name)):
            swept.append(spec.name)
            return _validate(spec)
        monkeypatch.setattr(cli, name, counting)
    return swept


def test_gate_sweeps_no_derived_subject(tmp_path, monkeypatch, capsys):
    """Regular modules, identities and right multiplications are valid by
    construction: no command sweeps them, and explicit subjects are swept once."""
    path = tmp_path / "zn4.json"
    path.write_text(json.dumps(bench_gen().instance(4, 1)))
    swept = _count_sweeps(monkeypatch)
    assert cli.main(["-i", str(path), "serre", "zn4_regular"]) == 0
    assert swept == []
    for command in (["serre", "fib_regular"], ["validate"], ["suite"]):
        swept.clear()
        assert cli.main(command) == 0
        assert swept == ["vec_over_vec_z2", "forgetful"], command
    capsys.readouterr()


def test_act_right_on_an_explicit_regular_module_reads_its_l_symbols(tmp_path, capsys):
    """``act_right_functor`` over a module whose L-symbols are a gauged copy of the
    F-symbols takes its c-blocks from those L-symbols, which are not a right
    multiplication's; so the loader accepts an ``act_right`` functor only over
    the regular module itself, and an explicit ``fib_regular`` is one JSON error."""
    cat = fib()
    one = cat.field.one
    gauged, _ = gauge_module(regular_module(cat), cat, dict.fromkeys(cat.fusion, one),
                             random.Random(12))
    assert gauged._l != regular_module(cat)._l
    fun = act_right_functor(cat, "tau", gauged)
    assert not fun.derived
    assert fun.c_symbols == act_right_composite(cat, "tau", gauged)
    assert fun.c_symbols != act_right_functor(cat, "tau").c_symbols
    doc = json.loads(Path(_bundled_path("fib.json")).read_text())
    doc["modules"] = {"fib_regular": _module_entry(gauged, "fib")}
    doc["functors"] = {"rmul_tau": {"type": "act_right", "category": "fib", "label": "tau"}}
    path = tmp_path / "fib.json"
    path.write_text(json.dumps(doc))
    error = "functor 'rmul_tau': act_right needs 'fib_regular' to be the regular module of 'fib'"
    with pytest.raises(ParseError, match=error):
        cli.load([str(path)])
    assert cli.main(["-i", str(path), "validate"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        json.dumps({"error": error, "status": "validation-failed"}, separators=(",", ":"))]


def test_gate_keeps_every_sweep_on_explicit_subjects(tmp_path, monkeypatch, capsys):
    """A coherence fault in the explicit forgetful functor that keeps the Schur
    rule stops serre with the first entry validate reports."""
    doc = json.loads(Path(_bundled_path("vec_over_vec_z2.json")).read_text())
    _mut_forgetful_c(doc)
    path = tmp_path / "vec_over_vec_z2.json"
    path.write_text(json.dumps(doc))
    flags = ["-i", _bundled_path("vec_z2_triv.json"), "-i", str(path)]
    assert cli.main([*flags, "validate"]) == 1
    entries = json.loads(capsys.readouterr().out)["result"]["functor forgetful"]
    assert entries[0].startswith("coherence at "), entries
    swept = _count_sweeps(monkeypatch)
    assert cli.main([*flags, "serre", "vec_over_vec_z2"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "status": "validation-failed", "error": f"functor forgetful: {entries[0]}"}
    assert swept == ["vec_over_vec_z2", "forgetful"]


def _fib_op_file(tmp_path) -> Path:
    """fib with the right module opposite to its regular module, ``fib_op``."""
    op = opposite_module(regular_module(fib()))
    doc = {"categories": json.loads(Path(_bundled_path("fib.json")).read_text())["categories"],
           "modules": {"fib_op": _module_entry(op, "fib")}}
    path = tmp_path / "fib_op.json"
    path.write_text(json.dumps(doc))
    return path


def test_right_orientation_module_round_trip(tmp_path):
    """Opposite-module data survives a JSON round trip and revalidates."""
    op = opposite_module(regular_module(fib()))
    loaded = cli.load([str(_fib_op_file(tmp_path))]).module("fib_op")
    assert loaded.orientation == "right"
    assert validate_module(loaded).ok
    assert loaded.action == op.action
    assert loaded._l == op._l


def test_serre_of_a_right_module_is_a_validation_failure(tmp_path, capsys):
    """The Serre coend is built on a left action: one JSON line, exit code 1."""
    assert cli.main(["-i", str(_fib_op_file(tmp_path)), "serre", "fib_op"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and out.count("\n") == 1
    assert json.loads(out) == {"status": "validation-failed",
                               "error": "the Serre coend needs a left module; 'fib_op' is right"}


@pytest.mark.parametrize("min_poly", [["-1", "0", "0", "0", "1"], ["0", "0", "1", "0", "1"],
                                      ["1", "0", "2", "0", "1"]],
                         ids=["x^4-1", "x^4+x^2", "(x^2+1)^2"])
def test_reducible_min_poly_is_reported_as_a_zero_divisor(tmp_path, min_poly):
    """A reducible field is blamed on the field, not on the F-symbols."""
    path = tmp_path / "fib.json"
    path.write_text(_mutated_fib(lambda c: c["field"].update(min_poly=min_poly)))
    result = cli.run(["validate"], cli.load([str(path)])).payload["result"]
    assert result["category fib"] == ["f-block-zero-divisor at (tau, tau, tau, tau)"]


def test_zero_divisor_in_a_right_module_is_reported(tmp_path):
    """A right module's L-block that meets a zero divisor is reported, not raised."""
    cat = json.loads(Path(_bundled_path("vec_z2_triv.json")).read_text())["categories"]
    cat["vec_z2_triv"]["field"]["min_poly"] = ["-1", "0", "1"]
    doc = _opposite_vov_doc()
    doc["categories"] = cat
    doc["modules"]["vec_over_vec_z2_op"]["l_symbols"] = [
        {"key": ["s", "s", "m", "m", "e", "m"], "value": ["1", "1"]}]   # 1 + x
    path = tmp_path / "vec_over_vec_z2_op.json"
    path.write_text(json.dumps(doc))
    result = cli.run(["validate"], cli.load([str(path)])).payload["result"]
    assert result["category vec_z2_triv"] == "valid"
    assert result["module vec_over_vec_z2_op"] == ["l-block-zero-divisor at (s, s, m, m)"]


@pytest.mark.parametrize("n", (4, 6, 8, 10))
def test_generated_probes_give_their_known_answers(n, tmp_path):
    """``serre``, ``character`` with the identity, and ``upsilon`` and ``adjshift``
    at every label, on ``bench/gen.py``'s gauged Vec_{Z/n}^omega past the
    corpus sizes: each report is the generator's known answer."""
    gen = bench_gen()
    nm = gen.names(n)
    ops = [["serre", nm["module"]], ["character", nm["module"], nm["identity"]]]
    ops += [[op, nm["category"], str(x)] for op in ("upsilon", "adjshift") for x in range(n)]
    path, answers = gen.emit(tmp_path, n, seed=n, ops=ops)
    bundle = cli.load([str(path)])
    for argv in ops:
        payload = cli.run(argv, bundle).payload
        assert {"status": payload["status"], "result": payload["result"]} \
            == answers[" ".join(argv)], argv
