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
from .fusioncat import FusionCategorySpec, validate_fusion
from .modcat import ModuleCategorySpec, internal_hom, regular_module, validate_module
from .modfunct import (ModuleFunctorSpec, act_right_functor, identity_functor,
                       validate_functor)
from .scalarfield import FieldElement, FieldSpec, Matrix, as_fraction


def _parse_element(field: FieldSpec, value) -> FieldElement:
    if isinstance(value, (int, str)):
        return field.rational(as_fraction(value))
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
        its report is empty and none of its sweeps run.
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
                return ValidationReport() if spec.derived else validate(spec)
            kind, name = broken[0]
            rep = ValidationReport()
            rep.add("invalid-dependency", (name,), f"invalid {kind}")
            return rep

        for name, cat in self.categories.items():
            rep = validate_fusion(cat)
            if rep.ok:
                try:
                    cat.duality()
                except ArithmeticError as exc:
                    rep.add("duality", (name,), str(exc))
            record("category", name, cat, rep)
        for name, mod in self.modules.items():
            record("module", name, mod, gated(validate_module, mod, mod.base))
        for name, fun in self.functors.items():
            record("functor", name, fun, gated(validate_functor, fun, fun.src, fun.dst))
        return reports


def _load_category(name: str, data: dict) -> FusionCategorySpec:
    field = FieldSpec(data["field"]["min_poly"])
    f_symbols = {}
    for entry in data.get("f_symbols", []):
        key = tuple(entry["key"])
        f_symbols[key] = _parse_element(field, entry["value"])
    return FusionCategorySpec(
        field=field, simples=data["simples"], unit=data["unit"],
        dual=data["dual"], fusion=[tuple(t) for t in data["fusion"]],
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
    l_symbols = {}
    for entry in data.get("l_symbols", []):
        l_symbols[tuple(entry["key"])] = _parse_element(base.field, entry["value"])
    units = {i: _parse_element(base.field, v)
             for i, v in data.get("unit_scalars", {}).items()}
    return ModuleCategorySpec(
        base=base, simples=data["simples"],
        action=[tuple(t) for t in data["action"]], l_symbols=l_symbols,
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
    src = bundle.module(data["src"])
    dst = bundle.module(data["dst"])
    field = src.field
    on_simples = {tuple(e["key"]): int(e["value"]) for e in data["on_simples"]}
    c_symbols = {}
    for entry in data.get("c_symbols", []):
        rows = entry["entries"]
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = [_parse_element(field, v) for row in rows for v in row]
        c_symbols[tuple(entry["key"])] = Matrix(field, nrows, ncols, flat)
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
            docs.append(json.loads(raw))
        except json.JSONDecodeError as exc:
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


def _section(doc: dict, key: str) -> dict:
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise ParseError(f"{key!r} must be a JSON object")
    return section


def _parse_entity(kind: str, name: str, load_one, *args):
    """Load one named entity; malformed data becomes a ParseError naming it."""
    try:
        return load_one(name, *args)
    except (ParseError, UnknownName):
        raise
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
            sys_ = endengine.build_hom_coend_system(f, g)
            res = endengine.solve_coend(sys_)
            return Report(command, digests, "ok",
                          {"dim": res.dim, "relations": len(res.relations)})
        sys_ = (endengine.ordinary_end_system(f, g) if "--ordinary" in flags
                else endengine.build_nat_system(f, g))
        if "--restrict" in flags:
            sys_ = endengine.restrict_conditions(sys_, values["LABELS"].split(","))
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
    if "vec_z4" in bundle.categories:
        idf = identities["vec_z4"]
        sys_full = endengine.build_nat_system(idf, idf)
        d_c = endengine.solve_end(sys_full).dim
        d_d = endengine.solve_end(endengine.restrict_conditions(sys_full, ["0", "2"])).dim
        d_v = endengine.solve_end(endengine.restrict_conditions(sys_full, ["0"])).dim
        record("restriction-monotone::vec_z4", d_c <= d_d <= d_v,
               f"{d_c} <= {d_d} <= {d_v}")
        co = endengine.build_hom_coend_system(idf, idf)
        c_c = endengine.solve_coend(co).dim
        c_d = endengine.solve_coend(endengine.restrict_conditions(co, ["0", "2"])).dim
        c_v = endengine.solve_coend(endengine.restrict_conditions(co, ["0"])).dim
        record("restriction-monotone-coend::vec_z4", c_c <= c_d <= c_v,
               f"{c_c} <= {c_d} <= {c_v}")
    if "vec_z2_triv" in bundle.categories:
        idf = identities["vec_z2_triv"]
        sys_full = endengine.build_nat_system(idf, idf)
        full = endengine.solve_end(sys_full).dim
        vec_only = endengine.solve_end(
            endengine.restrict_conditions(sys_full, ["e"])).dim
        record("restriction-strict::vec_z2", full < vec_only, f"{full} < {vec_only}")
    return lines, ok_all


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="modend",
        description="Exact module-(co)end computations over skeletal fusion categories.")
    parser.add_argument("--instances", "-i", action="append", metavar="FILE",
                        help="instance file, repeatable (default: the bundled corpus)")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help=" | ".join(usage_line(op) for op in USAGE))
    ns = parser.parse_args(argv)
    paths = ns.instances if ns.instances else bundled_instance_paths()
    if not ns.command:
        parser.print_help()
        return 0
    try:
        bundle = load(paths)
    except (ParseError, UnknownName, ValidationError) as exc:
        print(json.dumps({"status": "validation-failed", "error": str(exc)},
                         sort_keys=True, separators=(",", ":")))
        return 1
    try:
        report = run(ns.command, bundle)
    except (ParseError, ValidationError, UnknownName, NotATensorSubcategory,
            SourceTargetMismatch) as exc:
        print(json.dumps({"status": "validation-failed", "error": str(exc)},
                         sort_keys=True, separators=(",", ":")))
        return 1
    except (OracleMismatch, SerreCertificateFailure, UpsilonMismatch) as exc:
        print(json.dumps({"status": "certificate-failed", "error": str(exc)},
                         sort_keys=True, separators=(",", ":")))
        return 2
    except UnknownCommand as exc:
        print(json.dumps({"status": "validation-failed",
                          "error": f"unknown command {exc}"},
                         sort_keys=True, separators=(",", ":")))
        return 1
    print(report.dumps())
    return STATUS_EXIT[report.payload["status"]]


if __name__ == "__main__":
    sys.exit(main())
