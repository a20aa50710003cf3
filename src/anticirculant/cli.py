"""Command-line surface with stable exit codes and file formats.

Subcommands: classify, eval, sums, signfacts, oracle, theorem1,
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

``classify --verify`` is the CLI's certificate check: it re-checks the
verdict's certificate or witness exactly, from its parsed JSON document, and
exits 3 if it does not hold.  ``hankelmatrix`` reports LAPACK's eigenvalues
of the associated Hankel matrix, a numerical answer.

numpy is imported only by the commands that do numeric work: ``oracle``,
``hankelmatrix``, and a ``classify`` that runs the sphere search, which
only an Uncovered verdict does.  A covered ``classify``, whose NotPSD
witness is found by exact signs, with or without ``--verify``, and
``eval``, ``sums``, ``signfacts`` and ``theorem1`` run in pure Python.
``combinatorics`` is imported only by ``sums``, ``signfacts`` and
``theorem1``, so a covered ``classify`` imports neither numpy, the standard
library's ``dataclasses``, nor ``combinatorics``.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import classifier, polyeval, tensor

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


def _unlimited(convert, value):
    """``convert(value)`` with CPython's limit on int-to-str digits lifted.

    Exact output is printed however large; input parsing keeps the limit,
    which is restored on return.  An interpreter without the limit (before
    3.10.7) has no setter for it.
    """
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return convert(value)
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return convert(value)
    finally:
        set_limit(limit)


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Fraction) and value.denominator == 1:
        value = value.numerator
    return _unlimited(str, value)


def _fmt_vec(values) -> str:
    return "none" if values is None else ", ".join(_fmt(t) for t in values)


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
    """The whole generating vector, for the passes that read all of it."""
    return tensor.expand(subject) if isinstance(subject, tensor.CirculantSpec) else subject


def _reverify_from_document(doc: dict, subject) -> bool:
    """Re-derive the status from a parsed verdict document; True if it holds up."""
    status = doc["status"]
    if status == "PSD":
        cert = doc["certificate"]
        kind = classifier.CertificateKind(cert["kind"])
        rebuilt = classifier.Certificate(kind, v0=cert["v0"], t=cert.get("t"))
        return classifier.strong_hankel_check(subject, rebuilt, doc["tolerance"]).passed
    if status == "NotPSD":
        x = doc["witness"]
        return x is not None and len(x) == subject.n and polyeval.eval_exact(subject, tuple(x)) < 0
    return status == "Uncovered"


def cmd_classify(args) -> int:
    subject, verdict = _classify_document(args)
    verified = None
    if args.verify:
        doc = json.loads(json.dumps(verdict.to_dict()))
        verified = _reverify_from_document(doc, subject)

    if args.json:
        payload = verdict.to_dict()
        if verified is not None:
            payload["verified"] = verified
        print(json.dumps(payload))
    else:
        print("\n".join(_verdict_lines(verdict)))
        if verified is not None:
            print(f"verify: status {'reproduced' if verified else 'NOT reproduced'}")
    if verified is False:
        return 3
    return STATUS_EXIT[verdict.status]


def cmd_eval(args) -> int:
    subject, _ = load_spec_document(args.spec)
    x = tuple(parse_number_list(args.x, "coordinate"))
    try:
        tensor._require_finite(x, "coordinate")
        # either call checks the dimension
        if args.gradient:
            value, grad = polyeval.value_and_gradient(subject, x)
        else:
            value, grad = polyeval.eval_fast(subject, x), None
        naive = polyeval.eval_naive(_gen_of(subject), x, cap=args.cap) if args.naive else None
    except ValueError as exc:
        raise CliInputError(str(exc)) from None
    # --json writes floats, text writes exact values exactly; the coordinates
    # are finite, so a value that is no finite float64 comes from overflow
    checked = [("f(x)", value), ("f_naive(x)", naive)] + [("gradient", t) for t in grad or ()]
    for what, t in checked:
        if t is not None and (args.json or isinstance(t, float)):
            try:
                tensor._require_finite((t,), what)
            except ValueError:
                raise CliInputError(f"{what} overflows float64 at this point") from None

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
        # exact values are compared exactly: they need not fit in a float
        rel = abs(value - naive) / max(1, abs(value), abs(naive))
        if rel > 1e-10:
            print(f"error: fast/naive mismatch, relative {float(rel):.3e}", file=sys.stderr)
            return 3
    return 0


def cmd_sums(args) -> int:
    from . import combinatorics

    if args.m < 2:
        raise CliInputError(f"m must be >= 2, got {args.m}")
    if args.r < 2:
        raise CliInputError(f"r must be >= 2, got {args.r}")
    pattern = parse_int_list(args.pattern, "pattern")
    try:
        sums = combinatorics.residue_sum_table(args.m, args.r, pattern)
    except ValueError as exc:
        raise CliInputError(str(exc)) from None
    if args.json:
        print(_unlimited(json.dumps, {
            "m": args.m, "r": args.r, "pattern": pattern,
            "sums": list(sums), "total": sum(sums),
        }))
    else:
        print(f"m={args.m} r={args.r} pattern=({_fmt_vec(pattern)})")
        for j, s in enumerate(sums):
            print(f"S_{j} = {_fmt(s)}")
        print(f"total = {_fmt(sum(sums))} "
              f"(equals (sum pattern)^m = {_fmt(sum(pattern) ** args.m)})")
    return 0


def cmd_signfacts(args) -> int:
    from . import combinatorics

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
    if not all(row.passed for row in rows):
        print("error: sign-fact table has failures", file=sys.stderr)
        return 3
    return 0


def cmd_oracle(args) -> int:
    from . import oracle

    subject, _ = load_spec_document(args.spec)
    try:
        result = oracle.sphere_min(subject, starts=args.starts, rng_seed=args.seed)
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
    from . import combinatorics

    u = parse_number_list(args.u, "sequence", exact_decimals=True)
    try:
        seq = combinatorics.PeriodicSequence(tuple(Fraction(t) for t in u))
        sums = combinatorics.theorem1_sums(seq, args.M)
        verdict = combinatorics.theorem1_verdict(seq, sums)
    except combinatorics.RigidityViolation as exc:
        print(f"FATAL: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        raise CliInputError(str(exc)) from None
    if args.json:
        print(json.dumps({
            "M": args.M,
            "u": [_fmt(t) for t in seq.u],
            "sums": [_fmt(t) for t in sums],
            "verdict": verdict.value,
        }))
    else:
        print(f"M={args.M} p={seq.period} u=({_fmt_vec(seq.u)})")
        print(f"D = ({_fmt_vec(sums)})")
        print(f"verdict: {verdict.value}")
    return 0


def cmd_hankelmatrix(args) -> int:
    from . import oracle

    subject, _ = load_spec_document(args.spec)
    try:
        a = tensor.hankel_matrix(_gen_of(subject))
    except ValueError as exc:
        raise CliInputError(str(exc)) from None
    result = oracle.matrix_psd(a)
    # the entries are finite, so an eigenvalue that is not comes from overflow
    try:
        tensor._require_finite(result.eigenvalues, "eigenvalue")
    except ValueError:
        raise CliInputError("an eigenvalue of the Hankel matrix overflows float64") from None
    if args.json:
        print(json.dumps({
            "size": len(a),
            "matrix": [[float(t) for t in row] for row in a],
            "eigenvalues": list(result.eigenvalues),
            "min_eigenvalue": result.min_eigenvalue,
            "psd": result.passed,
        }))
    else:
        print(f"size: {len(a)} x {len(a)} (k={subject.m // 2})")
        for row in a:
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
                   help="sphere-search starts of an Uncovered verdict's evidence (default 64)")
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
    p.add_argument("pattern", help="comma-separated integer pattern")
    add_json(p)
    p.set_defaults(func=cmd_sums)

    p = sub.add_parser("signfacts", help="recompute the full sign-fact table")
    add_json(p)
    p.set_defaults(func=cmd_signfacts)

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
