"""Instance loading, command dispatch and machine-readable reports.

Instance files are JSON documents with three optional maps, ``categories``,
``modules`` and ``functors``, whose references by name may span files, and
exact scalars.  ``SHAPES`` states the format; docs/format.md documents it.

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

from . import blocks, endengine, theorems
from .common import (NotATensorSubcategory, OracleMismatch, ParseError,
                     SerreCertificateFailure, SourceTargetMismatch, UnknownCommand,
                     UnknownLabel, UnknownName, UpsilonMismatch, ValidationError,
                     ValidationReport)
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
    raise TypeError(f"not a field element: {value!r}")


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
            if not rep.ok:      # a spec under two keys is named by the first
                invalid.setdefault(id(spec), (kind, name))

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


def _joins(items) -> bool:
    """Whether every item is a string (in one call: JSON has no ``str`` subclass)."""
    try:
        "".join(items)
        return True
    except TypeError:
        return False


def _read(shape, value, field, where: str):
    """``value`` read by ``shape`` (see SHAPES) over ``field``; refusals name ``where``."""
    if shape is ELEMENT:
        return _parse_element(field, value)
    if type(shape) is str:
        if shape is STRINGS and type(value) is list and _joins(value):
            return tuple(value)     # a string is not read as its characters
        if (shape is ROWS and type(value) is list and {list} >= set(map(type, value))
                and len(set(map(len, value))) < 2):
            return Matrix.from_rows(field, [[_parse_element(field, v) for v in r] for r in value])
        if (shape is STRING and type(value) is str or shape is RATIONALS and type(value) is list
              or shape is COUNT and type(value) is int and value >= 0):
            return value            # the rationals of ``min_poly`` are read by FieldSpec
        raise ValueError(f"{where}{' ' if shape is STRINGS else ': '}{value!r} is not a {shape}")
    kind, word, item = shape
    if kind == "object":            # the field, the one object inside an entity
        return FieldSpec(**_walk(item, value, None, where))
    if type(value) is not (dict if kind == "map" else list):
        raise ValueError(f"{where} must be a JSON {'object' if kind == 'map' else 'list'}")
    inner = f"{where} {word}"
    if kind == "map":
        return {label: _read(item, v, field, inner) for label, v in value.items()}
    if kind == "list":
        return [_read(item, v, field, inner) for v in value]
    out, key_at = {}, f"{where} key"
    for entry in value:
        if type(entry) is not dict:
            raise ValueError(f"{where} entry {entry!r} is not a JSON object")
        if len(entry) != 2 or word not in entry or "key" not in entry:
            raise ValueError(f"{where} entry {entry!r} does not hold just 'key' and {word!r}")
        key = entry["key"]
        if type(key) is not list or not _joins(key):
            raise ValueError(f"{key_at} {key!r} is not a {STRINGS}")
        if (tup := tuple(key)) in out:
            raise ValueError(f"{key_at} {key} is repeated")
        out[tup] = (_parse_element(field, entry[word]) if item is ELEMENT
                    else _read(item, entry[word], field, f"{where} {key}"))
    return out


def _walk(kind: str, data, field_of, where: str = "") -> dict:
    """The values of the JSON object ``data`` read by the form of ``kind`` and its
    ``type``; ``field_of(values read so far)`` is the field of element values."""
    if type(data) is not dict:
        raise ValueError(f"{where} must be a JSON object".lstrip())
    kind_type = data.get("type", "explicit") if kind in ("module", "functor") else None
    try:
        keys, required, shapes = FORMS[kind, kind_type]
    except (KeyError, TypeError):       # TypeError: a JSON list or object as the type
        raise ValueError(f"unknown {kind} type {kind_type!r}") from None
    if not (keys.issuperset(data) and (len(data) == len(keys) or required.issubset(data))):
        why = [f"unknown key {k!r}" for k in data if k not in keys] + [
            f"missing key {k!r}" for k, _, _ in shapes if k in required and k not in data]
        raise ValueError(f"{where}: {why[0]}" if where else why[0])
    out, field = {}, None
    for key, shape, holds in shapes:
        if key in data:
            value = data[key]
            if shape is STRING and type(value) is str:     # the most common leaf
                out[key] = value
                continue
            if holds and field is None:
                field = field_of(out)
            out[key] = _read(shape, value, field, f"{where}.{key}" if where else key)
    return out


# The instance format: each form, keyed by kind and ``type``, lists its keys (``?``:
# it may be absent) and the shape of each value: a leaf, or ``(container, item word,
# leaf)`` for a "list", a "map" from labels, a "keyed list" of objects of a ``key``
# and the item word, or the "object" of a kind.
STRING, STRINGS, RATIONALS = "JSON string", "JSON list of strings", "JSON list of rationals"
COUNT, ELEMENT, ROWS = "non-negative integer", "field element", "JSON list of equal-length rows"
TRIPLES, SYMBOLS = ("list", "triple", STRINGS), ("keyed list", "value", ELEMENT)
SHAPES = {
    ("category", None): {
        "field": ("object", None, "field"), "simples": STRINGS, "unit": STRING,
        "dual": ("map", "value", STRING), "fusion": TRIPLES, "f_symbols?": SYMBOLS},
    ("field", None): {"min_poly": RATIONALS},
    ("module", "regular"): {"type": STRING, "category": STRING},
    ("module", "explicit"): {
        "type?": STRING, "category": STRING, "orientation?": STRING, "simples": STRINGS,
        "action": TRIPLES, "l_symbols?": SYMBOLS, "unit_scalars?": ("map", "value", ELEMENT)},
    ("functor", "identity"): {"type": STRING, "module": STRING},
    ("functor", "act_right"): {"type": STRING, "category": STRING, "label": STRING},
    ("functor", "explicit"): {
        "type?": STRING, "src": STRING, "dst": STRING,
        "on_simples": ("keyed list", "value", COUNT),
        "c_symbols?": ("keyed list", "entries", ROWS)},
}
# each form compiled once: its keys, its required keys, and (key, shape, holds elements)
FORMS = {kind_type: (frozenset(k.rstrip("?") for k in keys),
                     frozenset(k for k in keys if k[-1] != "?"),
                     tuple((k.rstrip("?"), shape, (shape if type(shape) is str else shape[-1])
                            in (ELEMENT, ROWS)) for k, shape in keys.items()))
         for kind_type, keys in SHAPES.items()}


def _load_category(name: str, data: dict) -> FusionCategorySpec:
    return FusionCategorySpec(**_walk("category", data, lambda v: v["field"]), name=name)


def _load_module(name: str, data: dict, bundle: InstanceBundle) -> ModuleCategorySpec:
    v = _walk("module", data, lambda v: bundle.category(v["category"]).field)
    base = bundle.category(v["category"])
    mod = regular_module(base) if data.get("type") == "regular" else ModuleCategorySpec(
        base, v["simples"], v["action"], v.get("l_symbols", {}), v.get("unit_scalars"),
        v.get("orientation", "left"))
    if mod not in bundle.modules.values():     # a regular module keeps its first key's name
        mod.name = name
    return mod


def _load_functor(name: str, data: dict, bundle: InstanceBundle) -> ModuleFunctorSpec:
    v = _walk("functor", data, lambda v: bundle.module(v["src"]).field)
    kind = data.get("type", "explicit")
    if kind == "identity":
        fun = identity_functor(bundle.module(v["module"]))
    elif kind == "act_right":
        cat, reg_name = bundle.category(v["category"]), f"{v['category']}_regular"
        reg = bundle.modules.get(reg_name)
        # L(X, i, y; k, z, t) is a c-block entry of - x y only on the regular module
        if reg is None or reg is not regular_module(cat):
            raise ParseError(f"functor {name!r}: act_right needs " + (
                f"the module {reg_name!r}" if reg is None else
                f"{reg_name!r} to be the regular module of {v['category']!r}"))
        fun = act_right_functor(cat, v["label"], reg)
    else:
        fun = ModuleFunctorSpec(bundle.module(v["src"]), bundle.module(v["dst"]),
                                v["on_simples"], v.get("c_symbols", {}))
    fun.name = name
    return fun


SECTIONS = {"categories": ("category", lambda name, data, bundle: _load_category(name, data)),
            "modules": ("module", _load_module), "functors": ("functor", _load_functor)}


def load(paths) -> InstanceBundle:
    """Parse and cross-link instance files; specs are validated by callers."""
    bundle, docs = InstanceBundle(), []
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
        if not isinstance(docs[-1], dict) or not SECTIONS.keys() >= docs[-1].keys():
            raise ParseError(f"{path}: top level must be a JSON object of {', '.join(SECTIONS)}")
    for key, (kind, load_one) in SECTIONS.items():
        entities = getattr(bundle, key)
        for doc in docs:
            section = doc.get(key, {})
            if not isinstance(section, dict):
                raise ParseError(f"{key!r} must be a JSON object")
            for name, data in section.items():
                try:
                    entities[name] = load_one(name, data, bundle)
                except ParseError:
                    raise
                except UnknownName as exc:      # a reference to an absent entity names both
                    raise UnknownName(f"{kind} {name!r}: no {exc}") from None
                except (ArithmeticError, TypeError, UnknownLabel, ValueError) as exc:
                    raise ParseError(f"{kind} {name!r}: {type(exc).__name__}: {exc}") from exc
    return bundle


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key repeated inside it is a ParseError."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"key {key!r} is repeated in one JSON object")
        out[key] = value
    return out


def bundled_instance_paths() -> list:
    root = os.path.join(os.path.dirname(__file__), "instances")
    return sorted(os.path.join(root, n) for n in os.listdir(root) if n.endswith(".json"))


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
                       blocks.lev_tensor_holds(cat, a, b))
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
