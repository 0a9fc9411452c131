"""Instance loading, command dispatch and machine-readable reports.

Instance files are JSON documents with three optional maps, ``categories``,
``modules`` and ``functors``; cross-references are by name and may span
files.  Scalars are exact: rationals are written ``"p/q"`` (or plain
integers), field elements as constant-first coefficient arrays over the
category's number field.  The full schema is documented in docs/format.md.

Exit codes: 0 success, 1 parse/validation failure, 2 theorem-certificate
failure.  The ``suite`` command treats every check (including validation and
exactness of the structure constants) as a certificate and exits 2 on any
failure, so perturbing a single bundled scalar flips its exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from importlib import resources

from . import blocks, endengine, theorems
from .common import (NotATensorSubcategory, OracleMismatch, ParseError,
                     SerreCertificateFailure, SourceTargetMismatch, UnknownCommand,
                     UnknownName, UpsilonMismatch, ValidationError, ValidationReport)
from .fusioncat import FusionCategorySpec, tensor_generators, validate_fusion
from .modcat import ModuleCategorySpec, internal_hom, regular_module, validate_module
from .modfunct import (ModuleFunctorSpec, act_right_functor, identity_functor,
                       validate_functor)
from .scalarfield import FieldElement, FieldSpec, Matrix


def _parse_element(field: FieldSpec, value) -> FieldElement:
    if isinstance(value, (int, str)):
        return field.rational(value)
    if isinstance(value, list):
        return field.element(value)
    raise ParseError(f"not a field element: {value!r}")


class InstanceBundle:
    """Named categories, modules and functors with resolved references."""

    def __init__(self):
        self.categories = {}
        self.modules = {}
        self.functors = {}
        self.digests = {}

    def category(self, name: str) -> FusionCategorySpec:
        if name not in self.categories:
            raise UnknownName(f"category {name!r}")
        return self.categories[name]

    def module(self, name: str) -> ModuleCategorySpec:
        if name not in self.modules:
            raise UnknownName(f"module {name!r}")
        return self.modules[name]

    def functor(self, name: str) -> ModuleFunctorSpec:
        if name not in self.functors:
            raise UnknownName(f"functor {name!r}")
        return self.functors[name]

    def validate_all(self) -> list:
        """All validation reports plus duality construction, in bundle order.

        A module over an invalid category, or a functor from or to an invalid
        module, is not checked: its report holds one ``invalid-dependency``
        entry at the name of the invalid subject.  A derived subject
        (``spec.derived``) over valid dependencies is valid by construction:
        its report is empty and none of its sweeps run.  Each spec keeps the
        report of its first sweep (``_kept``), so a second call on the same
        bundle sweeps nothing.
        """
        reports = []
        invalid = {}        # id of each spec whose report failed -> (kind, name)

        def record(kind, name, spec, rep):
            rep.subject = f"{kind} {name}"
            reports.append(rep)
            if not rep.ok:
                invalid[id(spec)] = (kind, name)

        def gated(validate, spec, *needs):
            broken = [invalid[id(d)] for d in needs if id(d) in invalid]
            if not broken:
                return ValidationReport() if spec.derived else _kept(spec, validate)
            kind, name = broken[0]
            rep = ValidationReport()
            rep.add("invalid-dependency", (name,), f"invalid {kind}")
            return rep

        for name, cat in self.categories.items():
            record("category", name, cat,
                   _kept(cat, lambda spec: _fusion_and_duality(name, spec)))
        for name, mod in self.modules.items():
            record("module", name, mod, gated(validate_module, mod, mod.base))
        for name, fun in self.functors.items():
            record("functor", name, fun, gated(validate_functor, fun, fun.src, fun.dst))
        return reports


def _fusion_and_duality(name: str, cat: FusionCategorySpec) -> ValidationReport:
    """``validate_fusion(cat)``, and if it passes, the duality construction,
    whose failure is one ``duality`` entry at ``name``."""
    rep = validate_fusion(cat)
    if rep.ok:
        try:
            cat.duality()
        except ArithmeticError as exc:
            rep.add("duality", (name,), str(exc))
    return rep


def _kept(spec, sweep) -> ValidationReport:
    """A copy of ``sweep(spec)``, run on the first call and kept on ``spec``.

    A spec's data are not edited once it is built (an edited copy is a new
    spec, with no report yet), so the kept report stays that of its data.
    """
    if spec._report is None:
        spec._report = sweep(spec)
    return ValidationReport(entries=list(spec._report.entries))


def _part(data: dict, key: str, shape: type, default=None):
    """``data[key]``, or ``default`` where it is absent if one is given,
    refused unless it is a JSON list (``shape`` is ``list``) or object
    (``dict``)."""
    value = data[key] if default is None else data.get(key, default)
    if type(value) is not shape:
        raise ValueError(f"{key} must be a JSON {'list' if shape is list else 'object'}")
    return value


def _labels(what: str, value) -> tuple:
    """``value`` as a tuple, refused unless it is a JSON list of strings: a
    string is not read as its characters.  ``str.join`` tests every item in
    one call; a JSON document has no subclass of ``str``."""
    if type(value) is list:
        try:
            "".join(value)
        except TypeError:
            pass
        else:
            return tuple(value)
    raise ValueError(f"{what} {value!r} is not a JSON list of strings")


def _triples(section: str, data: dict) -> list:
    """The ``fusion`` or ``action`` triples of ``data``, each a JSON list of strings."""
    return [_labels(f"{section} triple", t) for t in _part(data, section, list)]


def _keyed(section: str, entries: list, value) -> dict:
    """``{tuple(entry["key"]): value(entry)}`` over ``entries``; an entry that
    is not a JSON object, a key that is not a JSON list of strings and a
    repeated key are refused."""
    out = {}
    for entry in entries:
        if type(entry) is not dict:
            raise ValueError(f"{section} entry {entry!r} is not a JSON object")
        key = _labels(f"{section} key", entry["key"])
        if key in out:
            raise ValueError(f"{section} key {list(key)} is repeated")
        out[key] = value(entry)
    return out


def _load_category(name: str, data: dict) -> FusionCategorySpec:
    field = FieldSpec(_part(data, "field", dict)["min_poly"])
    f_symbols = _keyed("f_symbols", _part(data, "f_symbols", list, []),
                       lambda e: _parse_element(field, e["value"]))
    return FusionCategorySpec(
        field=field, simples=_labels("simples", data["simples"]), unit=data["unit"],
        dual=_part(data, "dual", dict), fusion=_triples("fusion", data),
        f_symbols=f_symbols, name=name)


def _load_module(name: str, data: dict, bundle: InstanceBundle) -> ModuleCategorySpec:
    kind = data.get("type", "explicit")
    base = bundle.category(data["category"])
    if kind == "regular":
        mod = regular_module(base)
        mod.name = name
        return mod
    if kind != "explicit":
        raise ParseError(f"unknown module type {kind!r}")
    l_symbols = _keyed("l_symbols", _part(data, "l_symbols", list, []),
                       lambda e: _parse_element(base.field, e["value"]))
    units = {i: _parse_element(base.field, v)
             for i, v in _part(data, "unit_scalars", dict, {}).items()}
    return ModuleCategorySpec(
        base=base, simples=_labels("simples", data["simples"]),
        action=_triples("action", data), l_symbols=l_symbols,
        unit_scalars=units, orientation=data.get("orientation", "left"), name=name)


def _load_functor(name: str, data: dict, bundle: InstanceBundle) -> ModuleFunctorSpec:
    kind = data.get("type", "explicit")
    if kind == "identity":
        fun = identity_functor(bundle.module(data["module"]))
        fun.name = name
        return fun
    if kind == "act_right":
        cat = bundle.category(data["category"])
        reg_name = f"{data['category']}_regular"
        reg = bundle.modules.get(reg_name)
        if reg is None:
            raise ParseError(f"functor {name!r}: act_right needs the module {reg_name!r}")
        # L(X, i, y; k, z, t) is a c-block entry of - x y only on the regular module
        if reg.tables is not cat.tables.regular():
            raise ParseError(f"functor {name!r}: act_right needs {reg_name!r} to be the "
                             f"regular module of {data['category']!r}")
        fun = act_right_functor(cat, data["label"], reg)
        fun.name = name
        return fun
    if kind != "explicit":
        raise ParseError(f"unknown functor type {kind!r}")
    src, dst = bundle.module(data["src"]), bundle.module(data["dst"])
    on_simples = _keyed("on_simples", _part(data, "on_simples", list), lambda e: e["value"])
    for key, value in on_simples.items():
        if type(value) is not int or value < 0:
            raise ValueError(f"on_simples {list(key)}: {value!r} is not a non-negative integer")

    def matrix(entry) -> Matrix:
        rows = entry["entries"]
        return Matrix(src.field, len(rows), len(rows[0]) if rows else 0,
                      [_parse_element(src.field, v) for row in rows for v in row])
    c_symbols = _keyed("c_symbols", _part(data, "c_symbols", list, []), matrix)
    return ModuleFunctorSpec(src, dst, on_simples, c_symbols, name=name)


def load(paths) -> InstanceBundle:
    """Parse and cross-link instance files; specs are validated by callers."""
    bundle = InstanceBundle()
    docs = []
    for path in paths:
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
        name, digest = os.path.basename(path), hashlib.sha256(raw).hexdigest()
        if bundle.digests.setdefault(name, digest) != digest:
            raise ParseError(f"two different input files are named {name}")
        try:
            docs.append(json.loads(raw, object_pairs_hook=_unique_keys))
        except (json.JSONDecodeError, ParseError) as exc:
            raise ParseError(f"{path}: {exc}") from exc
        if not isinstance(docs[-1], dict):
            raise ParseError(f"{path}: top level must be a JSON object")
    for doc in docs:
        for name, data in _section(doc, "categories").items():
            bundle.categories[name] = _parse_entity("category", name, _load_category, data)
    for doc in docs:
        for name, data in _section(doc, "modules").items():
            bundle.modules[name] = _parse_entity("module", name, _load_module, data, bundle)
    for doc in docs:
        for name, data in _section(doc, "functors").items():
            bundle.functors[name] = _parse_entity("functor", name, _load_functor, data, bundle)
    return bundle


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key repeated inside it is a ParseError."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"key {key!r} is repeated in one JSON object")
        out[key] = value
    return out


def _section(doc: dict, key: str) -> dict:
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise ParseError(f"{key!r} must be a JSON object")
    return section


def _parse_entity(kind: str, name: str, load_one, *args):
    """Load one named entity; malformed data becomes a ParseError naming it, and
    a reference to an absent entity an UnknownName naming both."""
    try:
        return load_one(name, *args)
    except ParseError:
        raise
    except UnknownName as exc:
        raise UnknownName(f"{kind} {name!r}: no {exc}") from None
    except (ArithmeticError, AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{kind} {name!r}: {type(exc).__name__}: {exc}") from exc


def bundled_instance_paths() -> list:
    root = resources.files("modend").joinpath("instances")
    return sorted(str(p) for p in root.iterdir() if p.name.endswith(".json"))


class Report:
    """Deterministic machine-readable command report."""

    def __init__(self, command, digests, status: str, result):
        self.payload = {
            "command": list(command),
            "inputs": dict(sorted(digests.items())),
            "status": status,
            "result": result,
        }

    def dumps(self) -> str:
        return json.dumps(self.payload, sort_keys=True, separators=(",", ":"))


STATUS_EXIT = {"ok": 0, "validation-failed": 1, "certificate-failed": 2}


def _validate_gate(bundle: InstanceBundle):
    """Stop at the first failed report; derived subjects are valid by construction."""
    for rep in bundle.validate_all():
        if not rep.ok:
            raise ValidationError(f"{rep.subject}: {rep.entries[0]}")


# usage line of each command: the names it takes, the flags it accepts with the
# arguments each flag takes, and the flags it requires
USAGE = {"validate": ((), {}, ()),
         "nat": (("F", "G"), {"--oracle": (), "--both": ()}, ()),
         "end": ((), {"--hom": ("F", "G"), "--restrict": ("LABELS",), "--ordinary": ()},
                 ("--hom",)),
         "coend": ((), {"--hom": ("F", "G")}, ("--hom",)),
         "serre": (("M",), {}, ()), "character": (("M", "U"), {}, ()),
         "upsilon": (("C", "X"), {}, ()), "adjshift": (("C", "Y"), {}, ()),
         "homsuite": (("M",), {}, ()), "suite": ((), {}, ())}
# flags of one ``[a|b]`` group share a slot: at most one of them is given
FLAG_SLOT = {"--both": "--oracle", "--ordinary": "--restrict"}
ARGUMENT_KINDS = {"F": "functor", "G": "functor", "U": "functor", "M": "module",
                  "C": "category"}


def usage_line(op: str) -> str:
    """``op``'s usage line: names, required flags, then one ``[a|b]`` per optional slot."""
    names, flags, required = USAGE[op]
    words, groups = [op, *names], {}
    for flag, args in flags.items():
        form = " ".join((flag, *args))
        if flag in required:
            words.append(form)
        else:
            groups.setdefault(FLAG_SLOT.get(flag, flag), []).append(form)
    return " ".join(words + [f"[{'|'.join(forms)}]" for forms in groups.values()])


def _check_arguments(op: str, args: list) -> tuple:
    """Split ``args`` by the usage line of ``op`` into named arguments and flags.

    Raises ParseError naming the first token that does not fit the usage
    line, or else the first argument that is missing, or else the first
    required flag that is missing.
    """
    wanted, flags, required = USAGE[op]
    tokens, positional = iter(args), iter(wanted)
    values, seen = {}, {}
    for token in tokens:
        if not token.startswith("--"):
            name = next(positional, None)
            if name is None:
                raise ParseError(f"{op}: unexpected argument {token!r}")
            values[name] = token
            continue
        if token not in flags:
            raise ParseError(f"{op}: unknown option {token}")
        slot = FLAG_SLOT.get(token, token)
        if slot in seen:
            earlier = seen[slot]
            raise ParseError(f"{op}: {token} given twice" if earlier == token
                             else f"{op}: {token} conflicts with {earlier}")
        seen[slot] = token
        for name in flags[token]:
            value = next(tokens, "--")
            if value.startswith("--"):
                raise ParseError(f"{op}: {token} is missing argument {name}")
            values[name] = value
    missing = next(positional, None)
    if missing is not None:
        raise ParseError(f"{op}: missing argument {missing}")
    given = set(seen.values())
    for flag in required:
        if flag not in given:
            raise ParseError(f"{op}: missing option {flag}")
    return values, given


def _argument(bundle: InstanceBundle, op: str, values: dict, arg: str):
    """The bundle entry argument ``arg`` names; an unknown name says which argument."""
    kind = ARGUMENT_KINDS[arg]
    try:
        return getattr(bundle, kind)(values[arg])
    except UnknownName:
        raise UnknownName(f"{op}: argument {arg}: no {kind} {values[arg]!r}") from None


def run(command, bundle: InstanceBundle) -> Report:
    """Dispatch a single command against a loaded bundle."""
    argv = list(command)
    if not argv:
        raise UnknownCommand("empty command")
    op = argv[0]
    values, flags = _check_arguments(op, argv[1:]) if op in USAGE else ({}, set())
    if "--restrict" in flags:
        labels = values["LABELS"].split(",")
        bad = next((a for a in labels if not a or a != a.strip()), None)
        if bad is not None:
            raise ParseError(f"{op}: LABELS item {bad!r} is empty or padded")
    digests = bundle.digests
    if op == "validate":
        reports = bundle.validate_all()
        result = {rep.subject: ([str(e) for e in rep.entries] if not rep.ok else "valid")
                  for rep in reports}
        status = "ok" if all(rep.ok for rep in reports) else "validation-failed"
        return Report(command, digests, status, result)
    if op == "suite":
        result, ok = run_suite(bundle)
        return Report(command, digests, "ok" if ok else "certificate-failed", result)
    _validate_gate(bundle)
    if op == "nat":
        f, g = (_argument(bundle, op, values, arg) for arg in ("F", "G"))
        mode = "both" if "--both" in flags else "oracle" if "--oracle" in flags else "end"
        res = theorems.nat_m_dim(f, g, mode)
        payload = {"dim": res.dim, "mode": mode}
        if mode == "both":
            payload["oracle_agrees"] = bool(res.oracle_agrees)
        return Report(command, digests, "ok", payload)
    if op in ("end", "coend"):
        f, g = (_argument(bundle, op, values, arg) for arg in ("F", "G"))
        if op == "coend":
            sys_ = endengine.build_hom_coend_system(f, g, tensor_generators(f.src.base))
            res = endengine.solve_coend(sys_)
            return Report(command, digests, "ok",
                          {"dim": res.dim, "relations": len(res.relations)})
        if "--ordinary" in flags:
            sys_ = endengine.ordinary_end_system(f, g)
        else:
            # a source/target mismatch is reported before a bad label
            endengine.check_hom_pair(f, g)
            at = tensor_generators(f.src.base, labels if "--restrict" in flags else None)
            sys_ = endengine.build_nat_system(f, g, at)
        res = endengine.solve_end(sys_)
        return Report(command, digests, "ok", {"dim": res.dim})
    if op == "serre":
        res = theorems.serre_functor(_argument(bundle, op, values, "M"))
        return Report(command, digests, "ok",
                      {"on_simples": {i: dict(v) for i, v in res.on_simples.items()},
                       "certificates": len(res.certificates)})
    if op == "character":
        mod, fun = (_argument(bundle, op, values, arg) for arg in ("M", "U"))
        vec = theorems.internal_character(mod, fun)
        return Report(command, digests, "ok",
                      {"object": dict(zip(mod.base.simples, vec))})
    if op == "upsilon":
        cat = _argument(bundle, op, values, "C")
        vec = theorems.upsilon_regular(cat, values["X"])
        return Report(command, digests, "ok",
                      {"object": dict(zip(cat.simples, vec))})
    if op == "adjshift":
        cat = _argument(bundle, op, values, "C")
        res = theorems.adjoint_shift_check(cat, values["Y"])
        status = "ok" if res.ok else "certificate-failed"
        return Report(command, digests, status,
                      {"equal": res.ok,
                       "lhs": dict(zip(cat.simples, res.lhs)),
                       "rhs": dict(zip(cat.simples, res.rhs))})
    if op == "homsuite":
        rep = theorems.hom_lemma_suite(_argument(bundle, op, values, "M"))
        status = "ok" if rep.ok else "certificate-failed"
        return Report(command, digests, status,
                      {"violations": [str(e) for e in rep.entries]})
    raise UnknownCommand(op)


def run_suite(bundle: InstanceBundle):
    """Deterministic certificate run over the whole bundle."""
    lines = {}
    ok_all = True

    def record(name, ok, detail=""):
        nonlocal ok_all
        lines[name] = ("pass" if ok else "FAIL") + (f": {detail}" if detail else "")
        ok_all = ok_all and bool(ok)

    for rep in bundle.validate_all():
        record(f"validate::{rep.subject}", rep.ok,
               "" if rep.ok else str(rep.entries[0]))
    if not ok_all:
        return lines, False
    for cname, cat in bundle.categories.items():
        for a in cat.simples:
            for b in cat.simples:
                record(f"ev-tensor-prod::{cname}::({a},{b})",
                       blocks.lev_tensor_holds(cat.tables, a, b))
    for name, mod in bundle.modules.items():
        rep = theorems.hom_lemma_suite(mod)
        record(f"homsuite::{name}", rep.ok)
    identities = {}
    for cname, cat in bundle.categories.items():
        reg = regular_module(cat)
        idf = identities[cname] = identity_functor(reg)
        rmul = {y: act_right_functor(cat, y, reg) for y in cat.simples}
        try:
            res = theorems.nat_m_dim(idf, idf, "both")
            record(f"nat-both::{cname}::id,id", res.dim == 1)
        except OracleMismatch as exc:
            record(f"nat-both::{cname}::id,id", False, str(exc))
        for y in cat.simples:
            for z in cat.simples:
                fy, fz = rmul[y], rmul[z]
                try:
                    res = theorems.nat_m_dim(fy, fz, "both")
                    record(f"nat-both::{cname}::{y},{z}",
                           res.dim == (1 if y == z else 0))
                except OracleMismatch as exc:
                    record(f"nat-both::{cname}::{y},{z}", False, str(exc))
        vec = theorems.internal_character(reg, idf)
        record(f"peter-weyl::{cname}", vec == tuple(1 if s == cat.unit else 0
                                                    for s in cat.simples), str(vec))
        try:
            sr = theorems.serre_functor(reg)
            ident = all(v == {p: (1 if p == i else 0) for p in reg.simples}
                        for i, v in sr.on_simples.items())
            record(f"serre::{cname}", ident)
        except SerreCertificateFailure as exc:
            record(f"serre::{cname}", False, str(exc))
        for x in cat.simples:
            try:
                theorems.upsilon_regular(cat, x, reg)
                record(f"upsilon::{cname}::{x}", True)
            except UpsilonMismatch as exc:
                record(f"upsilon::{cname}::{x}", False, str(exc))
        for y in cat.simples:
            res = theorems.adjoint_shift_check(cat, y, reg)
            record(f"adjshift::{cname}::{y}", res.ok,
                   "" if res.ok else f"{res.lhs} vs {res.rhs}")
    if "vec_over_vec_z2" in bundle.modules:
        mod = bundle.module("vec_over_vec_z2")
        forg = bundle.functor("forgetful")
        vec = theorems.internal_character(mod, forg)
        table = internal_hom(mod)
        record("peter-weyl::vec_over_vec_z2",
               vec == (1, 1) and vec == table.mult_vector("m", "m"), str(vec))
        try:
            theorems.serre_functor(mod)
            record("serre::vec_over_vec_z2", True)
        except SerreCertificateFailure as exc:
            record("serre::vec_over_vec_z2", False, str(exc))

    def hom_dims(cname, build, solve, subs) -> list:
        """Dimension of the (co)end of the identity of ``cname``'s regular module
        balanced at a tensor-generating set of each label set in ``subs``, of the
        whole category for None."""
        idf, cat = identities[cname], bundle.categories[cname]
        return [solve(build(idf, idf, tensor_generators(cat, sub))).dim for sub in subs]

    if "vec_z4" in bundle.categories:
        d_c, d_d, d_v = hom_dims("vec_z4", endengine.build_nat_system, endengine.solve_end,
                                 (None, ["0", "2"], ["0"]))
        record("restriction-monotone::vec_z4", d_c <= d_d <= d_v,
               f"{d_c} <= {d_d} <= {d_v}")
        c_c, c_d, c_v = hom_dims("vec_z4", endengine.build_hom_coend_system,
                                 endengine.solve_coend, (None, ["0", "2"], ["0"]))
        record("restriction-monotone-coend::vec_z4", c_c <= c_d <= c_v,
               f"{c_c} <= {c_d} <= {c_v}")
    if "vec_z2_triv" in bundle.categories:
        full, vec_only = hom_dims("vec_z2_triv", endengine.build_nat_system,
                                  endengine.solve_end, (None, ["e"]))
        record("restriction-strict::vec_z2", full < vec_only, f"{full} < {vec_only}")
    return lines, ok_all


def _print_error(status: str, error: str) -> int:
    """Print the one-line JSON error of ``status`` and return its exit code."""
    print(json.dumps({"status": status, "error": error}, sort_keys=True, separators=(",", ":")))
    return STATUS_EXIT[status]


class _Parser(argparse.ArgumentParser):
    """Raise a usage error as a ``ParseError``, for the one-line JSON report."""

    def error(self, message):
        raise ParseError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="modend",
        description="Exact module-(co)end computations over skeletal fusion categories.")
    parser.add_argument("--instances", "-i", action="append", metavar="FILE",
                        help="instance file, repeatable (default: the bundled corpus)")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help=" | ".join(usage_line(op) for op in USAGE))
    try:
        ns = parser.parse_args(argv)
    except ParseError as exc:
        return _print_error("validation-failed", str(exc))
    paths = ns.instances if ns.instances else bundled_instance_paths()
    if not ns.command:
        parser.print_help()
        return 0
    try:
        bundle = load(paths)
    except (ParseError, UnknownName, ValidationError) as exc:
        return _print_error("validation-failed", str(exc))
    try:
        report = run(ns.command, bundle)
    except (ParseError, ValidationError, UnknownName, NotATensorSubcategory,
            SourceTargetMismatch) as exc:
        return _print_error("validation-failed", str(exc))
    except (OracleMismatch, SerreCertificateFailure, UpsilonMismatch) as exc:
        return _print_error("certificate-failed", str(exc))
    except UnknownCommand as exc:
        return _print_error("validation-failed", f"unknown command {exc}")
    print(report.dumps())
    return STATUS_EXIT[report.payload["status"]]


if __name__ == "__main__":
    sys.exit(main())
