"""Command-line front end.

Every command builds the same envelope: command name, the parsed inputs,
a list of flat result records, the tolerances that judged them, and a
status of ok, violation, or error. The default output is one line per
record; --json prints the envelope (the shape is pinned by
data/cli_schema.json), --csv prints the records as a table.

The knot and link commands render every record, on the ok path and on a
refusal alike, from the one RootChoice of the two-bridge pipeline (a
GeometricRootError carries it), so the polynomial is built and solved
once per command.

Exit status: 0 for ok, 1 for a violation or a pipeline failure, 2 for a
usage error. The JNUM_TOL environment variable tightens or loosens the
library tolerances; a --config file can override the comparison
tolerance ("tol") and the default word-length caps ("max_len"), with
command-line flags taking precedence.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import Optional

from . import __version__
from . import tolerances as tol
from .arith import (ELLIPTIC_ORDERS, EllipticCandidate, elliptic_j_value,
                    elliptic_type_check, recognize_invariant_field)
from .catalog import (BIANCHI_DS, arithcomp_table, bianchi_alpha,
                      bianchi_generators, bianchi_relations, family_match,
                      geodesic_defect_bound, gtk_families, gtk_generators,
                      GtkParams, knot_table, losid_identity_suite,
                      verify_relations)
from .intpoly import IntPoly
from .linalg import Mat2, jorgensen_pair, proj_dist
from .riley import RILEY_A, knot_jreport, link_jreport, normalize, riley_b
from .words import (GeneratorSet, SearchError, inequality_sweep,
                    min_loxodromic_defect)


class UsageError(Exception):
    """Bad command-line input; reported on stderr with exit status 2."""


# ---------------------------------------------------------------------------
# envelope plumbing


def _envelope(command: str, inputs: dict, records: list,
              tolerances: dict, status: str) -> dict:
    return {"command": command, "inputs": inputs, "results": records,
            "tolerances": tolerances, "status": status}


def _mat_record(kind: str, name: str, m: Mat2) -> dict:
    a, b, c, d = m.entries()
    return {"kind": kind, "name": name,
            "a_re": a.real, "a_im": a.imag, "b_re": b.real, "b_im": b.imag,
            "c_re": c.real, "c_im": c.imag, "d_re": d.real, "d_im": d.imag}


def _short(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _print_human(env: dict) -> None:
    print(f"{env['command']}  status: {env['status']}")
    for rec in env["results"]:
        body = "  ".join(f"{k}={_short(v)}" for k, v in rec.items()
                         if k != "kind")
        print(f"  [{rec['kind']}] {body}")


def _print_csv(records: list) -> None:
    fields: list = []
    for rec in records:
        for key in rec:
            if key not in fields:
                fields.append(key)
    writer = csv.DictWriter(sys.stdout, fieldnames=fields, restval="")
    writer.writeheader()
    writer.writerows(records)


def _emit(env: dict, args) -> None:
    if args.json:
        print(json.dumps(env, indent=1))
    elif args.csv:
        _print_csv(env["results"])
    else:
        _print_human(env)


# ---------------------------------------------------------------------------
# inputs


def _fraction_pair(text: str, what: str) -> tuple:
    parts = text.split("/")
    if len(parts) == 2:
        try:
            return int(parts[0]), int(parts[1])
        except ValueError:
            pass
    raise UsageError(f"{what} must look like P/Q with integer parts, got {text!r}")


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    unknown = sorted(set(cfg) - {"tol", "max_len"})
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    if "tol" in cfg:
        if not isinstance(cfg["tol"], (int, float)) or not 0 < cfg["tol"] < 1:
            raise UsageError("config tol must be a number in (0, 1)")
    if "max_len" in cfg:
        if not isinstance(cfg["max_len"], int) or cfg["max_len"] < 1:
            raise UsageError("config max_len must be a positive integer")
    return cfg


def _eps(cfg: dict, default: float) -> float:
    return float(cfg.get("tol", default))


def _cap(flag_value: Optional[int], cfg: dict, default: int) -> int:
    if flag_value is not None:
        if flag_value < 1:
            raise UsageError("--max-len must be a positive integer")
        return flag_value
    return int(cfg.get("max_len", default))


# ---------------------------------------------------------------------------
# knot / link


def _root_records(choice) -> list:
    by_value = {complex(r): j for r, j in choice.rejected}
    records = []
    for i, raw in enumerate(choice.roots.roots):
        r = complex(raw)
        if abs(r.imag) <= tol.CX_EPS:
            status = "real"
        elif r.imag < 0.0:
            status = "conjugate"
        elif not choice.screened:
            status = "unscreened"
        elif r in by_value:
            status = "rejected"
        else:
            status = "survivor"
        records.append({"kind": "root", "index": i,
                        "z_re": r.real, "z_im": r.imag, "status": status,
                        "screen_j": by_value.get(r),
                        "selected": i == choice.index})
    return records


def _bridge_command(args, cfg: dict, is_knot_cmd: bool) -> dict:
    command = "knot" if is_knot_cmd else "link"
    p, q = _fraction_pair(args.fraction, "the two-bridge fraction")
    sample_len = _cap(args.max_len, cfg, 6)
    try:
        tb = normalize(p, q)
    except ValueError as exc:
        raise UsageError(str(exc))
    if tb.is_knot is not is_knot_cmd:
        actual = "knot" if tb.is_knot else "link"
        raise UsageError(
            f"{p}/{q} is a two-bridge {actual} fraction; use the {actual} command")
    inputs = {"p": p, "q": q, "root_index": args.root_index,
              "max_len": sample_len}
    tols = {"cx_eps": tol.CX_EPS, "mat_eps": tol.MAT_EPS, "j_eps": tol.J_EPS}
    jreport = knot_jreport if is_knot_cmd else link_jreport
    try:
        rep = jreport(tb.p, tb.q, args.root_index, sample_len)
    except IndexError as exc:
        raise UsageError(str(exc))
    except SearchError as exc:
        # a GeometricRootError carries the screen; a solver stall has none
        choice = getattr(exc, "choice", None)
        records = [] if choice is None else _root_records(choice)
        records.append({
            "kind": "error", "message": str(exc),
            "non_hyperbolic": choice is not None and all(
                abs(r.imag) <= tol.CX_EPS for r in choice.roots.roots),
        })
        return _envelope(command, inputs, records, tols, "error")
    choice = rep.choice
    poly = rep.poly
    z = complex(rep.z)
    records = _root_records(choice)
    report = {
        "kind": "report", "fraction": f"{tb.p}/{tb.q}",
        "poly": poly.format(), "degree": poly.degree,
        "z_re": z.real, "z_im": z.imag, "modulus": abs(z),
        "jorgensen": rep.jorgensen, "waist": rep.waist,
        "in_ball": abs(z) < 4.0,
        "ambiguous": choice.ambiguous,
        "residual": choice.roots.residual,
        "unit_constant": abs(poly.coeffs[0]) == 1,
        "unit_leading": abs(poly.coeffs[-1]) == 1,
    }
    if choice.link_raw is not None:
        report["poly_raw"] = choice.link_raw.format()
    records.append(report)
    return _envelope(command, inputs, records, tols, "ok")


def cmd_knot(args, cfg: dict) -> dict:
    return _bridge_command(args, cfg, True)


def cmd_link(args, cfg: dict) -> dict:
    return _bridge_command(args, cfg, False)


# ---------------------------------------------------------------------------
# bianchi / gtk


def cmd_bianchi(args, cfg: dict) -> dict:
    if args.d not in BIANCHI_DS:
        raise UsageError(f"--d must be one of {', '.join(map(str, BIANCHI_DS))}")
    eps = _eps(cfg, tol.MAT_EPS)
    gens = bianchi_generators(args.d)
    alpha = bianchi_alpha(args.d)
    records = [_mat_record("generator", name, m)
               for name, m in zip(gens.names, gens.mats)]
    records.append({"kind": "report", "d": args.d,
                    "alpha_re": alpha.real, "alpha_im": alpha.imag})
    status = "ok"
    if args.verify:
        rep = verify_relations(gens, bianchi_relations(args.d))
        for w, dev in zip(rep.words, rep.deviations):
            records.append({"kind": "relator", "word": w.show(gens.names),
                            "deviation": dev, "ok": dev <= eps})
        if not rep.ok(eps):
            status = "violation"
    inputs = {"d": args.d, "verify": bool(args.verify)}
    return _envelope("bianchi", inputs, records, {"mat_eps": eps}, status)


def cmd_gtk(args, cfg: dict) -> dict:
    num, den = _fraction_pair(args.theta, "theta")
    try:
        params = GtkParams(num, den, args.k)
    except ValueError as exc:
        raise UsageError(str(exc))
    gens = gtk_generators(params)
    a, b = gens.mats
    jr = jorgensen_pair(a, b)
    field = recognize_invariant_field(a, b)
    match = family_match(params)
    if match is None:
        note = "not a listed family"
    elif match.row.arithmetic:
        note = "listed family, arithmetic"
    else:
        note = "listed family, not arithmetic"
    records = [_mat_record("generator", name, m)
               for name, m in zip(gens.names, gens.mats)]
    records.append({
        "kind": "report", "theta_num": num, "theta_den": den, "k": args.k,
        "jorgensen": jr.value,
        "commutator_trace_re": jr.commutator_trace.real,
        "commutator_trace_im": jr.commutator_trace.imag,
        "field_d": None if field is None else field.d,
        "field": None if field is None else field.name,
        "family": None if match is None else match.row.label,
        "family_n": None if match is None else match.n,
        "arithmetic": None if match is None else match.row.arithmetic,
        "identification": None if match is None else match.identification,
        "note": note,
    })
    inputs = {"theta_num": num, "theta_den": den, "k": args.k}
    tols = {"cx_eps": tol.CX_EPS, "j_eps": tol.J_EPS}
    return _envelope("gtk", inputs, records, tols, "ok")


# ---------------------------------------------------------------------------
# verify suites


def _suite_bianchi(args, cfg: dict):
    eps = _eps(cfg, tol.MAT_EPS)
    records = []
    for d in BIANCHI_DS:
        gens = bianchi_generators(d)
        rep = verify_relations(gens, bianchi_relations(d))
        for w, dev in zip(rep.words, rep.deviations):
            records.append({"kind": "relator", "d": d,
                            "word": w.show(gens.names),
                            "deviation": dev, "ok": dev <= eps})
    return records, {"mat_eps": eps}, {}


def _suite_losid(args, cfg: dict):
    eps = _eps(cfg, tol.MAT_EPS)
    records = [{"kind": "identity", "label": chk.label,
                "deviation": chk.deviation, "ok": chk.ok(eps)}
               for chk in losid_identity_suite()]
    return records, {"mat_eps": eps}, {}


def _suite_arithcomp(args, cfg: dict):
    eps = _eps(cfg, 1e-6)
    records = []
    for entry in arithcomp_table():
        gens = entry.generators
        j = jorgensen_pair(gens.mats[0], gens.mats[1]).value
        c = entry.c
        dev = max(abs(j - entry.expected_j), abs(j - abs(c) ** 2))
        records.append({"kind": "entry", "label": entry.label,
                        "c_re": c.real, "c_im": c.imag,
                        "expected_j": entry.expected_j, "jorgensen": j,
                        "deviation": dev, "ok": dev <= eps})
    return records, {"j_eps": eps}, {}


def _sign_matched_quotient(poly: IntPoly, divisor: IntPoly):
    """poly / divisor over Z, trying both signs of the divisor; None if inexact."""
    for cand in (divisor, -divisor):
        try:
            return poly.divexact(cand)
        except ValueError:
            continue
    return None


def _suite_knot_table(args, cfg: dict):
    eps = _eps(cfg, 1e-6)
    max_len = _cap(args.max_len, cfg, 12)
    records = [{"kind": "constant", "name": "geodesic_defect_bound",
                "value": geodesic_defect_bound()}]
    for row in knot_table():
        rep = knot_jreport(row.p, row.q)
        computed = rep.poly
        quotient = _sign_matched_quotient(computed, row.minpoly)
        z_dev = min(abs(rep.z - row.z), abs(rep.z - row.z.conjugate()))
        j_dev = abs(rep.jorgensen - row.jorgensen)
        gens = GeneratorSet(("A", "B"), (RILEY_A, riley_b(rep.z)))
        used_len = max_len
        alpha = min_loxodromic_defect(gens, used_len)
        if abs(alpha - row.alpha) > eps:
            used_len = max_len + 2
            alpha = min_loxodromic_defect(gens, used_len)
        alpha_dev = abs(alpha - row.alpha)
        ok = (quotient is not None and z_dev <= eps and j_dev <= eps
              and alpha_dev <= eps
              and abs(computed.coeffs[0]) == 1 and abs(computed.coeffs[-1]) == 1)
        records.append({
            "kind": "knot", "label": row.label, "p": row.p, "q": row.q,
            "poly": computed.format(), "minpoly": row.minpoly.format(),
            "minpoly_divides": quotient is not None,
            "z_re": rep.z.real, "z_im": rep.z.imag, "z_dev": z_dev,
            "jorgensen": rep.jorgensen, "j_dev": j_dev,
            "alpha": alpha, "alpha_dev": alpha_dev, "max_len": used_len,
            "unit_constant": abs(computed.coeffs[0]) == 1,
            "unit_leading": abs(computed.coeffs[-1]) == 1,
            "ok": ok,
        })
    return records, {"j_eps": eps}, {"max_len": max_len}


def _suite_elliptic(args, cfg: dict):
    eps = _eps(cfg, 1e-12)
    records = []
    for n in ELLIPTIC_ORDERS:
        j = elliptic_j_value(n)
        records.append({"kind": "order", "n": n, "j_value": j,
                        "deviation": abs(j - 1.0), "ok": abs(j - 1.0) <= eps})
    # two rejection fixtures: an inadmissible order, and an admissible
    # order whose trace datum violates the bound at the identity and
    # conjugate places
    for cand, expected in (
            (EllipticCandidate(6, 5.0), (1,)),
            (EllipticCandidate(7, 5.0, (5.0, 5.0)), (2, 4))):
        rep = elliptic_type_check(cand)
        records.append({
            "kind": "candidate", "n": cand.n, "tr2B": cand.tr2B,
            "failed": ",".join(map(str, rep.failed)),
            "expected_failed": ",".join(map(str, expected)),
            "ok": rep.failed == expected,
        })
    return records, {"j_eps": eps}, {}


def _suite_gtk_families(args, cfg: dict):
    eps = _eps(cfg, tol.J_EPS)
    records = []
    for row in gtk_families():
        gens = row.generators()
        a, b = gens.mats
        j = jorgensen_pair(a, b).value
        field = recognize_invariant_field(a, b)
        found = None if field is None else field.d
        shifted = gtk_generators(GtkParams(
            row.params.theta_num + row.params.theta_den,
            row.params.theta_den, row.params.k))
        sym_dev = proj_dist(shifted.mats[1], b)
        ok = (abs(j - 1.0) <= eps and found == row.field_d and sym_dev <= eps)
        records.append({
            "kind": "family", "label": row.label, "k": row.params.k,
            "jorgensen": j, "j_dev": abs(j - 1.0),
            "field_expected": row.field_d, "field_found": found,
            "symmetry_dev": sym_dev,
            "identification": row.identification, "ok": ok,
        })
    return records, {"j_eps": eps}, {}


def _suite_inequality_sweep(args, cfg: dict):
    eps = _eps(cfg, tol.J_EPS)
    max_len = _cap(args.max_len, cfg, 5)
    threshold = 1.0 - eps
    z8 = complex(0.5, math.sqrt(3.0) / 2.0)
    groups = [("figure-eight <A, B(z)>",
               GeneratorSet(("A", "B"), (RILEY_A, riley_b(z8))))]
    groups.extend((f"Bianchi d = {d}", bianchi_generators(d))
                  for d in BIANCHI_DS)
    records = []
    for label, gens in groups:
        rep = inequality_sweep(gens, max_len, threshold)
        records.append({
            "kind": "sweep", "group": label, "max_len": max_len,
            "n_elements": rep.n_elements, "n_pairs": rep.n_pairs,
            "n_candidates": rep.n_candidates,
            "n_violations": len(rep.violations),
            "ok": not rep.violations,
        })
    return records, {"j_eps": eps}, {"max_len": max_len}


_SUITES = {
    "bianchi": _suite_bianchi,
    "losid": _suite_losid,
    "arithcomp": _suite_arithcomp,
    "knot-table": _suite_knot_table,
    "elliptic": _suite_elliptic,
    "gtk-families": _suite_gtk_families,
    "inequality-sweep": _suite_inequality_sweep,
}


def cmd_verify(args, cfg: dict) -> dict:
    inputs = {"suite": args.suite}
    try:
        records, tols, extra = _SUITES[args.suite](args, cfg)
    except SearchError as exc:
        return _envelope("verify", inputs,
                         [{"kind": "error", "message": str(exc)}],
                         {"j_eps": _eps(cfg, tol.J_EPS)}, "error")
    inputs.update(extra)
    failed = sum(1 for rec in records if rec.get("ok") is False)
    status = "ok" if failed == 0 else "violation"
    return _envelope("verify", inputs, records, tols, status)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jnum",
        description="Jorgensen numbers of two-generator Kleinian groups: "
                    "two-bridge knot and link representations, the "
                    "G(theta, k) families, Bianchi groups, and verification "
                    "suites over the built-in tables.",
        epilog="JNUM_TOL in the environment overrides the 1e-9 default "
               "tolerance for the whole library.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    out = common.add_mutually_exclusive_group()
    out.add_argument("--json", action="store_true",
                     help="print the machine-readable result envelope")
    out.add_argument("--csv", action="store_true",
                     help="print the result records as CSV")
    common.add_argument("--config", metavar="FILE", default=None,
                        help='JSON file {"tol": ..., "max_len": ...}; '
                             "flags take precedence")

    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")

    k = sub.add_parser("knot", parents=[common],
                       help="two-bridge knot report: polynomial, roots, "
                            "J, waist bound")
    k.add_argument("fraction", metavar="P/Q",
                   help="two-bridge fraction, odd P coprime to Q")
    k.add_argument("--root-index", type=int, default=None, metavar="N",
                   help="bypass the geometric screen and take root N")
    k.add_argument("--max-len", type=int, default=None, metavar="L",
                   help="screening word length (default 6)")
    k.set_defaults(func=cmd_knot)

    li = sub.add_parser("link", parents=[common],
                        help="two-bridge link report (even P)")
    li.add_argument("fraction", metavar="P/Q",
                    help="two-bridge fraction, even P coprime to Q")
    li.add_argument("--root-index", type=int, default=None, metavar="N",
                    help="bypass the geometric screen and take root N")
    li.add_argument("--max-len", type=int, default=None, metavar="L",
                    help="screening word length (default 6)")
    li.set_defaults(func=cmd_link)

    bi = sub.add_parser("bianchi", parents=[common],
                        help="Bianchi group generators, optionally checking "
                             "the presentation")
    bi.add_argument("--d", type=int, required=True,
                    help=f"discriminant parameter, one of "
                         f"{', '.join(map(str, BIANCHI_DS))}")
    bi.add_argument("--verify", action="store_true",
                    help="evaluate every relator against the identity")
    bi.set_defaults(func=cmd_bianchi)

    g = sub.add_parser("gtk", parents=[common],
                       help="the pair G(theta, k): J, field recognition, "
                            "family lookup")
    g.add_argument("theta", metavar="NUM/DEN",
                   help="theta as the rational multiple NUM/DEN of pi")
    g.add_argument("k", type=float, help="the parameter k")
    g.set_defaults(func=cmd_gtk)

    v = sub.add_parser("verify", parents=[common],
                       help="run a verification suite over the built-in "
                            "tables")
    v.add_argument("suite", choices=sorted(_SUITES),
                   help="which suite to run")
    v.add_argument("--max-len", type=int, default=None, metavar="L",
                   help="word-length cap for knot-table (default 12) and "
                        "inequality-sweep (default 5)")
    v.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        env = args.func(args, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(env, args)
    return 0 if env["status"] == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
