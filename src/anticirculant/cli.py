"""Command-line surface with stable exit codes and file formats.

Subcommands: classify, eval, sums, signfacts, certify, oracle, theorem1,
hankelmatrix.  Exit codes are a contract::

    0  PSD / success
    1  NotPSD
    2  usage or input error
    3  verification or sign-fact failure
    4  Uncovered
    5  internal error (a one-line ``error: internal: ...`` on stderr)

Tensor spec documents are JSON objects with integer ``m`` and ``n`` plus
exactly one of a circulant description or a raw generating vector::

    {"m": 4, "n": 4, "r": 2, "seed": [1, 0.5]}
    {"m": 2, "n": 2, "genvec": [1, 0, 1]}

An optional ``"tolerance"`` field overrides the relative seed-comparison
tolerance (the ``--tolerance`` flag wins over the field).  Integers in the
document are kept exact, which switches seed comparisons to exact mode.

Comma-separated number lists (vectors, patterns, sequences) accept ``-1``,
``(-1)``, and the typographic minus sign; fractions like ``2/3`` are kept
exact where exactness matters.  Results go to standard output, diagnostics
to standard error; RNG seeds default to 0 and are always printed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import classifier, combinatorics, oracle, polyeval, tensor

_MINUS_SIGN = "−"


class CliInputError(Exception):
    """Input or usage problem; maps to exit code 2."""


def _clean_token(token: str) -> str:
    t = token.strip()
    if t.startswith("(") and t.endswith(")"):
        t = t[1:-1].strip()
    return t.replace(_MINUS_SIGN, "-")


def parse_number_list(text: str, kind: str = "number", exact_decimals: bool = False) -> list:
    """Parse a comma-separated list, keeping ints and fractions exact.

    Decimal tokens become floats by default; with ``exact_decimals`` they
    become exact Fractions (e.g. ``0.1`` is 1/10, not the nearest double).
    """
    out = []
    for raw in text.split(","):
        token = _clean_token(raw)
        if not token:
            raise CliInputError(f"empty {kind} entry in {text!r}")
        try:
            if "/" in token:
                out.append(Fraction(token))
            elif "." in token or "e" in token.lower():
                out.append(Fraction(token) if exact_decimals else float(token))
            else:
                out.append(int(token))
        except (ValueError, ZeroDivisionError) as exc:
            raise CliInputError(f"bad {kind} entry {raw.strip()!r}: {exc}") from None
    return out


def parse_int_list(text: str, kind: str = "integer") -> list[int]:
    values = parse_number_list(text, kind)
    for value in values:
        if not isinstance(value, int):
            raise CliInputError(f"{kind} list {text!r} must contain only integers")
    return values


def _require_int(doc: dict, field: str, path: str) -> int:
    value = doc.get(field)
    if not isinstance(value, int) or isinstance(value, bool):
        raise CliInputError(f"{path}: field {field!r} must be an integer, got {value!r}")
    return value


def _require_number_array(doc: dict, field: str, path: str) -> list:
    value = doc.get(field)
    if not isinstance(value, list) or not value:
        raise CliInputError(f"{path}: field {field!r} must be a nonempty array")
    for i, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise CliInputError(
                f"{path}: field {field!r} entry {i} must be a number, got {item!r}"
            )
    return value


def load_spec_document(path: str):
    """Parse a tensor spec document.

    Returns (CirculantSpec | GeneratingVector, tolerance_override | None).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise CliInputError(f"{path}: document must be an object with named fields")

    known = {"m", "n", "r", "seed", "genvec", "tolerance"}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise CliInputError(f"{path}: unknown field(s) {', '.join(map(repr, unknown))}")

    m = _require_int(doc, "m", path)
    n = _require_int(doc, "n", path)
    has_circulant = "r" in doc or "seed" in doc
    has_genvec = "genvec" in doc
    if has_circulant == has_genvec:
        raise CliInputError(
            f"{path}: provide exactly one of ('r' with 'seed') or 'genvec'"
        )

    tolerance = doc.get("tolerance")
    if tolerance is not None:
        # only the type is checked here; classify validates the value
        if isinstance(tolerance, bool) or not isinstance(tolerance, (int, float)):
            raise CliInputError(f"{path}: field 'tolerance' must be a number")
        try:
            tolerance = float(tolerance)
        except OverflowError:
            raise CliInputError(f"{path}: field 'tolerance' is too large") from None

    try:
        if has_genvec:
            v = _require_number_array(doc, "genvec", path)
            return tensor.GeneratingVector(m=m, n=n, v=tuple(v)), tolerance
        if "r" not in doc or "seed" not in doc:
            raise CliInputError(f"{path}: 'r' and 'seed' must appear together")
        r = _require_int(doc, "r", path)
        seed = _require_number_array(doc, "seed", path)
        return tensor.CirculantSpec(m=m, n=n, r=r, seed=tuple(seed)), tolerance
    except ValueError as exc:
        raise CliInputError(f"{path}: {exc}") from None


def _emit(lines) -> None:
    for line in lines:
        print(line)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else str(value)
    return str(value)


def _fmt_vec(values) -> str:
    return ", ".join(_fmt(t) for t in values)


STATUS_EXIT = {
    classifier.Status.PSD: 0,
    classifier.Status.NOT_PSD: 1,
    classifier.Status.UNCOVERED: 4,
}


def _verdict_lines(verdict: classifier.Verdict) -> list[str]:
    lines = [
        f"status: {verdict.status.value}",
        f"case: {verdict.case.value if verdict.case else 'none'}",
        f"tolerance: {_fmt(verdict.tolerance)}",
    ]
    if verdict.certificate:
        cert = verdict.certificate
        lines.append(f"certificate: {cert.kind.value} v0={_fmt(cert.v0)} t={_fmt(cert.t)}")
    if verdict.strong_hankel:
        sh = verdict.strong_hankel
        lines.append(
            f"strong-hankel: eigen_floor={_fmt(sh.matrix_eigen_floor)} v0={_fmt(sh.v0)}"
        )
    if verdict.witness:
        lines.append(f"witness: {_fmt_vec(verdict.witness.x)}")
        lines.append(f"witness_label: {verdict.witness.label}")
        lines.append(f"witness_value: {_fmt(verdict.witness_value)}")
    if verdict.evidence:
        ev = verdict.evidence
        lines.append(
            "evidence: sphere-search min "
            f"{_fmt(ev.min_value)} over {ev.starts} starts (rng_seed={ev.rng_seed}, "
            f"converged={ev.converged_starts}) [not a certificate]"
        )
        lines.append(f"evidence_argmin: {_fmt_vec(ev.argmin)}")
    for note in verdict.notes:
        lines.append(f"note: {note}")
    return lines


def _classify_document(args):
    """(subject, verdict) for ``args.spec``; the --tolerance flag wins over the field."""
    subject, file_tol = load_spec_document(args.spec)
    tolerance = args.tolerance if args.tolerance is not None else file_tol
    kwargs = {"evidence_starts": args.starts, "rng_seed": args.seed}
    if tolerance is not None:
        kwargs["rel_tol"] = tolerance
    try:
        return subject, classifier.classify(subject, **kwargs)
    except ValueError as exc:
        raise CliInputError(str(exc)) from None


def _gen_of(subject) -> tensor.GeneratingVector:
    if isinstance(subject, tensor.CirculantSpec):
        return tensor.expand(subject)
    return subject


def _reverify_from_document(doc: dict, gen: tensor.GeneratingVector) -> bool:
    """Re-derive the status from a parsed verdict document; True if it holds up."""
    status = doc["status"]
    if status == "PSD":
        cert = doc["certificate"]
        kind = classifier.CertificateKind(cert["kind"])
        rebuilt = classifier.Certificate(kind, v0=cert["v0"], t=cert.get("t"))
        return classifier.strong_hankel_check(gen, rebuilt, doc["tolerance"]).passed
    if status == "NotPSD":
        x = doc["witness"]
        if x is None or len(x) != gen.n:
            return False
        value = float(polyeval.eval_fast(gen, tuple(x)))
        margin_noted = any("margin" in note for note in doc.get("notes", ()))
        if margin_noted:
            return value < 0.0
        return value < -classifier.WITNESS_REL_MARGIN * gen.max_abs()
    return status == "Uncovered"


def cmd_classify(args) -> int:
    subject, verdict = _classify_document(args)
    verified = None
    if args.verify:
        doc = json.loads(json.dumps(verdict.to_dict()))
        verified = _reverify_from_document(doc, _gen_of(subject))

    if args.json:
        payload = verdict.to_dict()
        if verified is not None:
            payload["verified"] = verified
        print(json.dumps(payload))
    else:
        _emit(_verdict_lines(verdict))
        if verified is not None:
            print(f"verify: status {'reproduced' if verified else 'NOT reproduced'}")
    if verified is False:
        return 3
    return STATUS_EXIT[verdict.status]


def cmd_eval(args) -> int:
    subject, _ = load_spec_document(args.spec)
    gen = _gen_of(subject)
    x = parse_number_list(args.x, "coordinate")
    if len(x) != gen.n:
        raise CliInputError(f"x has {len(x)} coordinates, tensor dimension is {gen.n}")
    value = polyeval.eval_fast(gen, tuple(x))

    naive = None
    if args.naive:
        try:
            naive = polyeval.eval_naive(gen, tuple(x), cap=args.cap)
        except ValueError as exc:
            raise CliInputError(str(exc)) from None
    grad = polyeval.value_and_gradient(gen, tuple(x))[1] if args.gradient else None

    if args.json:
        payload = {"f": float(value)}
        if naive is not None:
            payload["f_naive"] = float(naive)
        if grad is not None:
            payload["gradient"] = [float(t) for t in grad]
        print(json.dumps(payload))
    else:
        print(f"f(x) = {_fmt(value)}")
        if naive is not None:
            print(f"f_naive(x) = {_fmt(naive)}")
        if grad is not None:
            print(f"gradient: {_fmt_vec(grad)}")

    if naive is not None:
        rel = abs(float(value) - float(naive)) / max(1.0, abs(float(value)), abs(float(naive)))
        if rel > 1e-10:
            print(f"error: fast/naive mismatch, relative {rel:.3e}", file=sys.stderr)
            return 3
    return 0


def cmd_sums(args) -> int:
    if args.m < 2:
        raise CliInputError(f"m must be >= 2, got {args.m}")
    if args.r < 2:
        raise CliInputError(f"r must be >= 2, got {args.r}")
    pattern = parse_int_list(args.pattern, "pattern")
    try:
        table = combinatorics.residue_sum_table(args.m, args.r, pattern)
    except ValueError as exc:
        raise CliInputError(str(exc)) from None
    if args.json:
        print(json.dumps({
            "m": table.m, "r": table.r, "pattern": list(table.pattern),
            "sums": list(table.sums), "total": table.total(),
        }))
    else:
        print(f"m={table.m} r={table.r} pattern=({_fmt_vec(table.pattern)})")
        for j, s in enumerate(table.sums):
            print(f"S_{j} = {s}")
        print(f"total = {table.total()} (equals (sum pattern)^m = {sum(pattern) ** args.m})")
    return 0


def cmd_signfacts(args) -> int:
    rows = combinatorics.sign_fact_report()
    if args.json:
        print(json.dumps([
            {"m": row.m, "r": row.r, "pattern": list(row.pattern),
             "sums": list(row.sums), "requirement": row.requirement,
             "passed": row.passed}
            for row in rows
        ]))
    else:
        for row in rows:
            state = "PASS" if row.passed else "FAIL"
            print(
                f"m={row.m} r={row.r} pattern=({_fmt_vec(row.pattern)}) "
                f"sums=({_fmt_vec(row.sums)}) requires [{row.requirement}]: {state}"
            )
    if not combinatorics.all_sign_facts_pass(rows):
        print("error: sign-fact table has failures", file=sys.stderr)
        return 3
    return 0


def cmd_certify(args) -> int:
    subject, verdict = _classify_document(args)
    gen = _gen_of(subject)

    if verdict.status is not classifier.Status.PSD:
        if args.json:
            print(json.dumps(verdict.to_dict()))
        else:
            _emit(_verdict_lines(verdict))
        print("no certificate: status is " + verdict.status.value, file=sys.stderr)
        return STATUS_EXIT[verdict.status]

    cert = verdict.certificate
    check = classifier.strong_hankel_check(gen, cert, verdict.tolerance)
    _, worst = classifier.verify_power_sum(gen, cert, points=args.points, rng_seed=args.seed)
    report = {
        "power_sum": {
            "v0": cert.v0, "t": cert.t, "residual": check.residual, "slack": check.slack,
            "passed": check.passed, "points": args.points, "rng_seed": args.seed,
            "max_rel_err": worst,
        },
        "strong_hankel": {
            "min_eigenvalue": check.min_eigenvalue, "size": check.size, "passed": check.passed,
        },
    }
    word = "PASS" if check.passed else "FAIL"
    if args.json:
        print(json.dumps(report))
    else:
        print(f"power-sum: v0={_fmt(cert.v0)} t={_fmt(cert.t)} "
              f"residual={check.residual:.3e} slack={check.slack:.3e}: {word}")
        print(f"sampled: {args.points} points (rng_seed={args.seed}) "
              f"max_rel_err={worst:.3e} [diagnostic]")
        print(f"strong-hankel: size={check.size} "
              f"min_eigenvalue={_fmt(check.min_eigenvalue)}: {word}")
    return 0 if check.passed else 3


def cmd_oracle(args) -> int:
    subject, _ = load_spec_document(args.spec)
    gen = _gen_of(subject)
    try:
        result = oracle.sphere_min(gen, starts=args.starts, rng_seed=args.seed)
    except ValueError as exc:
        raise CliInputError(str(exc)) from None
    if args.json:
        print(json.dumps(result.to_dict()))
    else:
        print(f"min_value = {_fmt(result.min_value)}")
        print(f"argmin: {_fmt_vec(result.argmin)}")
        print(
            f"starts={result.starts} converged={result.converged_starts} "
            f"rng_seed={result.rng_seed}"
        )
    return 0


def cmd_theorem1(args) -> int:
    u = parse_number_list(args.u, "sequence", exact_decimals=True)
    try:
        seq = combinatorics.PeriodicSequence(tuple(Fraction(t) for t in u))
        sums = combinatorics.theorem1_sums(seq, args.M)
        verdict = combinatorics.theorem1_verdict(seq, args.M)
    except combinatorics.RigidityViolation as exc:
        print(f"FATAL: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        raise CliInputError(str(exc)) from None
    if args.json:
        print(json.dumps({
            "M": args.M,
            "u": [str(t) for t in seq.u],
            "sums": [str(t) for t in sums],
            "verdict": verdict.value,
        }))
    else:
        print(f"M={args.M} p={seq.period} u=({_fmt_vec(seq.u)})")
        print(f"D = ({_fmt_vec(sums)})")
        print(f"verdict: {verdict.value}")
    return 0


def cmd_hankelmatrix(args) -> int:
    subject, _ = load_spec_document(args.spec)
    gen = _gen_of(subject)
    try:
        hm = tensor.hankel_matrix(gen)
    except ValueError as exc:
        raise CliInputError(str(exc)) from None
    result = oracle.matrix_psd(hm.a)
    if args.json:
        print(json.dumps({
            "size": hm.size,
            "matrix": [[float(t) for t in row] for row in hm.a],
            "eigenvalues": list(result.eigenvalues),
            "min_eigenvalue": result.min_eigenvalue,
            "psd": result.passed,
        }))
    else:
        print(f"size: {hm.size} x {hm.size} (k={hm.k})")
        for row in hm.a:
            print("  " + "  ".join(f"{t:.12g}" for t in row))
        print(f"eigenvalues: {_fmt_vec(result.eigenvalues)}")
        print(f"min_eigenvalue: {_fmt(result.min_eigenvalue)}")
        print(f"psd: {'yes' if result.passed else 'no'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anticirculant",
        description=(
            "Classify positive semidefiniteness of generalized anti-circulant "
            "Hankel tensors, with certificates, witnesses, and numerical oracles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec(p):
        p.add_argument("spec", help="path to a JSON tensor spec document")

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("classify", help="closed-form PSD classification")
    add_spec(p)
    p.add_argument("--tolerance", type=float, default=None,
                   help="relative seed-comparison tolerance (default 1e-12)")
    p.add_argument("--starts", type=int, default=64,
                   help="oracle starts for evidence/fallback (default 64)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--verify", action="store_true",
                   help="re-parse the verdict document and re-verify the status")
    add_json(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("eval", help="evaluate f(x)")
    add_spec(p)
    p.add_argument("x", help="comma-separated coordinates")
    p.add_argument("--naive", action="store_true",
                   help="cross-check against brute-force enumeration")
    p.add_argument("--gradient", action="store_true", help="also print the gradient")
    p.add_argument("--cap", type=int, default=tensor.DENSE_CAP_DEFAULT,
                   help="entry cap for --naive (default 1000000)")
    add_json(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sums", help="exact residue-class multinomial sums")
    p.add_argument("m", type=int)
    p.add_argument("r", type=int)
    p.add_argument("pattern", help="comma-separated integer pattern, length <= 4")
    add_json(p)
    p.set_defaults(func=cmd_sums)

    p = sub.add_parser("signfacts", help="recompute the full sign-fact table")
    add_json(p)
    p.set_defaults(func=cmd_signfacts)

    p = sub.add_parser("certify", help="verify the certificates of a PSD verdict")
    add_spec(p)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--points", type=int, default=1000,
                   help="points of the sampled diagnostic (default 1000)")
    p.add_argument("--starts", type=int, default=64)
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    add_json(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("oracle", help="multistart sphere minimum estimate")
    add_spec(p)
    p.add_argument("--starts", type=int, default=64)
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    add_json(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("theorem1", help="alternating binomial sums over a periodic sequence")
    p.add_argument("M", type=int, help="binomial order, >= 1")
    p.add_argument("u", help="comma-separated rationals, one period")
    add_json(p)
    p.set_defaults(func=cmd_theorem1)

    p = sub.add_parser("hankelmatrix", help="associated Hankel matrix and eigenvalues")
    add_spec(p)
    add_json(p)
    p.set_defaults(func=cmd_hankelmatrix)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except Exception as exc:  # noqa: BLE001 - no fault may exit with a verdict's code
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"error: internal: {message}", file=sys.stderr)
        return 5


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
