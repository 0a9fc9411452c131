"""Seeded instance generator for the gauged pointed family Vec_{Z/n}^omega.

The category is Vec_{Z/n} over Q (n even) with the sign 3-cocycle
``omega(a, b, c) = (-1)^(a * floor((b + c) / n))``, rescaled by a random
2-cochain ``lam``: every F-symbol becomes
``omega(a,b,c) * lam(a,b) lam(a+b,c) / (lam(b,c) lam(a,b+c))``.  ``lam`` is 1
on unit legs and a small random nonzero rational elsewhere, so the instance is
a gauge-equivalent copy of the same category and every reported quantity is
known in advance.  Files use the ``regular``, ``identity`` and ``act_right``
entries that ``modend.cli.load`` reads; no modend code is imported here.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path


def names(n: int) -> dict:
    cat = f"zn{n}"
    return {"category": cat, "module": f"{cat}_regular",
            "identity": f"id_{cat}_regular", "rmul": f"rmul_{cat}_{{}}"}


def _omega(n: int, a: int, b: int, c: int) -> int:
    return -1 if a * ((b + c) // n) % 2 else 1


def _cochain(n: int, rng: random.Random) -> dict:
    lam = {}
    for a in range(n):
        for b in range(n):
            if a == 0 or b == 0:
                lam[a, b] = Fraction(1)
            else:
                lam[a, b] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 4),
                                     rng.randint(1, 4))
    return lam


def instance(n: int, seed: int) -> dict:
    """The instance document for Vec_{Z/n}^omega gauged by the seed's cochain."""
    if n < 2 or n % 2:
        raise ValueError("the sign cocycle needs an even n >= 2")
    nm = names(n)
    rng = random.Random(seed * 1009 + n)
    lam = _cochain(n, rng)
    labels = [str(g) for g in range(n)]
    f_symbols = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                ab, bc = (a + b) % n, (b + c) % n
                val = (_omega(n, a, b, c) * lam[a, b] * lam[ab, c]
                       / (lam[b, c] * lam[a, bc]))
                if val != 1:
                    key = [str(a), str(b), str(c), str((a + b + c) % n),
                           str(ab), str(bc)]
                    f_symbols.append({"key": key, "value": str(val)})
    functors = {nm["identity"]: {"type": "identity", "module": nm["module"]}}
    for y in labels:
        functors[nm["rmul"].format(y)] = {"type": "act_right",
                                          "category": nm["category"], "label": y}
    return {
        "categories": {nm["category"]: {
            "field": {"min_poly": ["0", "1"]},
            "simples": labels,
            "unit": "0",
            "dual": {str(a): str((-a) % n) for a in range(n)},
            "fusion": [[str(a), str(b), str((a + b) % n)]
                       for a in range(n) for b in range(n)],
            "f_symbols": f_symbols,
        }},
        "modules": {nm["module"]: {"type": "regular", "category": nm["category"]}},
        "functors": functors,
    }


def _delta(n: int, x: int) -> dict:
    return {str(p): int(p == x) for p in range(n)}


def known_answer(n: int, argv: list) -> dict:
    """The report (status and result) that ``modend`` must give for ``argv``."""
    nm = names(n)
    op, args = argv[0], argv[1:]
    if op == "validate":
        subjects = ([f"category {nm['category']}", f"module {nm['module']}",
                     f"functor {nm['identity']}"]
                    + [f"functor {nm['rmul'].format(y)}" for y in range(n)])
        result = {s: "valid" for s in subjects}
    elif op == "serre":
        result = {"on_simples": {str(i): _delta(n, i) for i in range(n)},
                  "certificates": n ** 3}
    elif op == "character":
        result = {"object": _delta(n, 0)}
    elif op == "upsilon":
        result = {"object": _delta(n, int(args[1]))}
    elif op == "adjshift":
        y = _delta(n, int(args[1]))
        result = {"equal": True, "lhs": y, "rhs": y}
    elif op == "nat":
        y, z = (name.rsplit("_", 1)[1] for name in args[:2])
        result = {"dim": int(y == z), "mode": "both", "oracle_agrees": True}
    elif op == "end":
        if "--ordinary" in args:
            dim = n
        elif "--restrict" in args:
            dim = n // len(args[args.index("--restrict") + 1].split(","))
        else:
            dim = 1
        result = {"dim": dim}
    elif op == "coend":
        result = {"dim": 1, "relations": n - 1}
    elif op == "homsuite":
        result = {"violations": []}
    else:
        raise ValueError(f"no known answer for {argv!r}")
    return {"status": "ok", "result": result}


def emit(outdir: Path, n: int, seed: int, ops: list) -> tuple:
    """Write ``zn<n>.json`` and its known-answer table for ``ops``.

    Returns ``(instance_path, answers)`` where ``answers`` maps the space-joined
    command to its known report.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"zn{n}.json"
    path.write_text(json.dumps(instance(n, seed), indent=1, sort_keys=True))
    answers = {" ".join(argv): known_answer(n, argv) for argv in ops}
    (outdir / f"zn{n}.answers.json").write_text(
        json.dumps(answers, indent=1, sort_keys=True))
    return path, answers
