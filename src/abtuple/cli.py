"""Command-line interface.

Every subcommand returns a JSON document, a one-line human summary and an
exit code; ``main`` alone writes them: the document to stdout (and to the
``--out`` file where a command takes one), the summary to stderr.  Errors
take the same path as one ``{"error": ...}`` document.  Tuple files are
either the line format (one element per line, whitespace-separated integer
coordinates, ``#`` comments), a JSON object ``{"dim": d, "elements": [[..],
..]}`` or the bare JSON array of elements; pass ``-`` to read stdin.

Exit codes: 0 success / affirmative, 1 negative result (property fails,
certificate invalid, tuple unclassified, audit failure, enumeration found a
counterexample candidate), 2 bad input or precondition violation, 3 budget
exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .classify import (
    VARIANT_RANK_BELOW,
    VARIANT_TYPE_B,
    VARIANT_UNCLASSIFIED,
    CertificateFormatError,
    classification_from_json_obj,
    classify,
    verify_classification,
)
from .exhaustive import EnumerationJob, run_enumeration
from .generators import GeneratorSpec, generate
from .structure import adequate_basis_decide, audit_claims, q_basis_certificate
from .tuples import (
    BudgetExceeded,
    has_property,
    parse_tuple,
    rank,
    to_json_obj,
)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_tuple(path: str):
    return parse_tuple(_read_text(path))


def _cmd_rank(args) -> tuple[dict, str, int]:
    t = _read_tuple(args.file)
    r = rank(t)
    summary = f"rank {r} (q={len(t)}, dim={t.dim})"
    return {"dim": t.dim, "q": len(t), "rank": r}, summary, 0


def _cmd_property(args) -> tuple[dict, str, int]:
    t = _read_tuple(args.file)
    report = has_property(t, args.r, args.s)
    if report.holds:
        summary = f"(P_{{{args.r},{args.s}}}) holds"
    else:
        w, i = report.failure_witness
        summary = (
            f"(P_{{{args.r},{args.s}}}) fails: window {[p + 1 for p in w]}, "
            f"selection {[p + 1 for p in i]} has no distinct equal-sum selection"
        )
    return report.to_json_obj(), summary, 0 if report.holds else 1


def _cmd_classify(args) -> tuple[dict, str, int]:
    t = _read_tuple(args.file)
    cls = classify(t, args.s)
    if cls.variant == VARIANT_UNCLASSIFIED:
        if cls.property_holds:
            summary = (
                "UNCLASSIFIED but the property holds: "
                "counterexample candidate, please report this tuple"
            )
        else:
            summary = "unclassified (property fails, nothing to match)"
    elif cls.variant == VARIANT_RANK_BELOW:
        summary = f"rank {cls.rank} < s-1: no shape claim applies"
    else:
        extra = f", k={cls.k}" if cls.variant == VARIANT_TYPE_B else ""
        summary = f"{cls.variant} (s={cls.s}{extra})"
    return cls.to_json_obj(), summary, 1 if cls.variant == VARIANT_UNCLASSIFIED else 0


def _cmd_verify(args) -> tuple[dict, str, int]:
    t = _read_tuple(args.file)
    try:
        obj = json.loads(_read_text(args.cert_file))
    except RecursionError as exc:
        raise CertificateFormatError(f"certificate JSON: {exc}") from None
    cls = classification_from_json_obj(obj)
    ok = cls.s == args.s and verify_classification(t, cls)
    summary = "certificate valid" if ok else "certificate INVALID"
    return {"valid": ok}, summary, 0 if ok else 1


def _cmd_qbasis(args) -> tuple[dict, str, int]:
    t = _read_tuple(args.file)
    cert = q_basis_certificate(t)
    idx = [i + 1 for i in cert.indices]
    return cert.to_json_obj(), f"rank {cert.rank} certificate, indices {idx}", 0


def _cmd_adequate_basis(args) -> tuple[dict, str, int]:
    t = _read_tuple(args.file)
    decision = adequate_basis_decide(t)
    if decision.exists:
        idx = [i + 1 for i in decision.witness.indices]
        summary = f"adequate basis exists: indices {idx}"
    else:
        summary = f"no adequate basis ({len(decision.refutation)} subsets refuted)"
    return decision.to_json_obj(), summary, 0 if decision.exists else 1


def _cmd_audit(args) -> tuple[dict, str, int]:
    t = _read_tuple(args.file)
    report = audit_claims(t, args.s)
    if report.all_pass:
        summary = f"all claims pass (case {report.case})"
    else:
        names = ", ".join(c.name for c in report.failures)
        summary = f"FAILED claims: {names}"
    return report.to_json_obj(), summary, 0 if report.all_pass else 1


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def _cmd_generate(args) -> tuple[dict, str, int]:
    dim = args.dim if args.dim is not None else args.s - 1
    translation = (
        _parse_int_list(args.translation) if args.translation is not None else None
    )
    spec = GeneratorSpec(
        kind=args.kind,
        s=args.s,
        dim=dim,
        k=args.k,
        breakpoints=_parse_int_list(args.breaks) if args.breaks is not None else (),
        seed=args.seed,
        unimodular_bound=args.unimodular_bound,
        translation=translation,
        permutation_seed=args.permutation_seed,
    )
    t = generate(spec)
    return (
        {"spec": dataclasses.asdict(spec), "tuple": to_json_obj(t)},
        f"generated type {spec.kind} tuple: q={len(t)}, dim={t.dim}",
        0,
    )


def _cmd_enumerate(args) -> tuple[dict, str, int]:
    job = EnumerationJob(
        s=args.s,
        q=args.q,
        dim=args.dim,
        bound=args.bound,
        jobs=args.jobs,
    )
    report = run_enumeration(job)
    verdict = "ok" if report["ok"] else "COUNTEREXAMPLE CANDIDATES FOUND"
    summary = (
        f"{report['tuples']} tuples, {report['with_property']} with property, "
        f"{verdict}"
    )
    return report, summary, 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abtuple",
        description="Exact tools for equal-sum exchange properties of integer tuples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="rank of the subgroup generated by a tuple")
    p.add_argument("file")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("property", help="decide the exchange property (P_{r,s})")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("file")
    p.set_defaults(func=_cmd_property)

    p = sub.add_parser("classify", help="match a tuple against the canonical shapes")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="check a classification certificate")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("file")
    p.add_argument("cert_file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("qbasis", help="rational basis certificate for a tuple")
    p.add_argument("file")
    p.set_defaults(func=_cmd_qbasis)

    p = sub.add_parser(
        "adequate-basis", help="decide whether an adequate basis exists"
    )
    p.add_argument("file")
    p.set_defaults(func=_cmd_adequate_basis)

    p = sub.add_parser("audit", help="audit the structural claims on a tuple")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("file")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("generate", help="generate a canonical-shape tuple instance")
    p.add_argument("--kind", choices=("a", "b"), required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--breaks", default=None, help="comma-separated breakpoints")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unimodular-bound", type=int, default=0)
    p.add_argument("--permutation-seed", type=int, default=None)
    p.add_argument("--translation", default=None, help="comma-separated coordinates")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("enumerate", help="exhaust a small universe and verify claims")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc, summary, code = args.func(args)
        text = json.dumps(doc, indent=2, sort_keys=True)
        if getattr(args, "out", None) is not None:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
    except (BudgetExceeded, ValueError, OSError) as exc:
        code = 3 if isinstance(exc, BudgetExceeded) else 2
        text = json.dumps({"error": str(exc)}, indent=2, sort_keys=True)
        summary = f"{'budget exceeded' if code == 3 else 'error'}: {exc}"
    print(text)
    print(summary, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
