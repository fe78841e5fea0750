"""Command-line front end: predict, verify, witness.

Reports go to standard output (or --out PATH); progress lines for long
runs go to standard error, one per form-space percentile, so output
stays pipeline-safe.  Codeword counts are serialized as decimal strings
in JSON, never floats and never truncated to machine words.

Exit status contract: 0 success (for verify, oracle equal to the
prediction; for witness, spectrum equal to the closed form and the
embedding checks passed), 1 internal error or mismatch, 2 usage error,
3 budget refusal.

Every refusal and usage error is decided before numpy or any field is
loaded: at import this module loads only the standard library and
admission, and a command loads the numpy-side modules (_load) only once
its request is admitted.
"""

from __future__ import annotations

import argparse
import json
import sys

from .admission import (DEFAULT_WITNESS_BOUND, TIER_BUDGETS, BudgetExceeded,
                        ModulusRankError, check_modulus_rank, check_witness_budget,
                        choose_oracle, default_workers, split_prime_power)

# The numpy-side names the commands call (and build_code, which benchmark
# tracing wraps here too), and their modules.  _load binds them as module
# globals, and the commands call them through those globals, so a name
# replaced from outside (a test's stub, a tracing wrapper) before or
# after the load is the one called.
_LAZY = {
    "build_code": "codes", "verify": "engine", "make_field": "fields",
    "cayley_spectrum": "hermitian", "rank1_count": "hermitian",
    "verify_isomorphism": "hermitian", "eigenvalues": "spectra",
    "frequencies": "spectra", "predict": "spectra",
}


def _load():
    """Import the numpy-side modules, in the order the package has always
    imported them, and bind each name of _LAZY not bound already."""
    from . import codes, engine, fields, hermitian, quadforms, spectra  # noqa: F401
    namespace = globals()
    for name, module in _LAZY.items():
        if name not in namespace:
            namespace[name] = getattr(sys.modules[f"{__package__}.{module}"], name)


def __getattr__(name):
    if name in _LAZY:
        _load()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _distribution_doc(dist) -> dict:
    """The JSON document of a spectra.WeightDistribution."""
    return {
        "q": dist.q,
        "m": dist.m,
        "family": dist.family,
        "n": dist.n,
        "k": dist.k,
        "d": dist.d,
        "distribution": [[w, str(c)] for w, c in dist.pairs()],
    }


def _distribution_csv(dist) -> str:
    lines = ["weight,count"] + [f"{w},{c}" for w, c in dist.pairs()]
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# progress lines start at this many forms to enumerate (a rank sweep of
# 2^18 forms takes about a second)
PROGRESS_MIN_FORMS = 2**18


def _progress_printer():
    """Engine progress callback: one stderr line per new percentile, when
    the engine's total of forms to enumerate reaches PROGRESS_MIN_FORMS."""
    state = {"pct": -1}

    def cb(done, total):
        pct = int(100 * done / total)
        if total >= PROGRESS_MIN_FORMS and pct > state["pct"]:
            state["pct"] = pct
            print(f"progress: {pct}%", file=sys.stderr, flush=True)

    return cb


def _read_config(path: str | None) -> dict:
    config: dict[str, int] = {}
    if not path:
        return config
    allowed = {"workers", "quick_budget", "standard_budget", "extended_budget",
               "witness_budget"}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in allowed:
                raise ValueError(f"unknown config key {key!r}")
            config[key] = int(value.strip())
            if config[key] < 1:  # the rule the --workers flag follows
                raise ValueError(f"{key} must be >= 1, got {config[key]}")
    return config


def _resolve_q(parser: argparse.ArgumentParser, args) -> tuple[int, int]:
    """(p, e) from --q or --p/--e; usage error if inconsistent."""
    if args.q is not None:
        if args.p is not None or args.e is not None:
            parser.error("give either --q or --p/--e, not both")
        try:
            return split_prime_power(args.q)
        except ValueError as exc:
            parser.error(str(exc))
    if args.p is None:
        parser.error("one of --q or --p is required")
    try:
        p, e = split_prime_power(args.p)
    except ValueError:
        parser.error(f"{args.p} is not prime")
    if e != 1:
        parser.error(f"--p {args.p} is not prime")
    if args.e is not None and args.e < 1:
        parser.error("--e must be >= 1")
    return args.p, args.e if args.e is not None else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="traceweight",
        description="Three families of cyclic codes: predicted weight "
                    "distributions and brute-force verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p_):
        p_.add_argument("--q", type=int, help="field size, a prime power")
        p_.add_argument("--p", type=int, help="characteristic (with --e)")
        p_.add_argument("--e", type=int, help="extension degree of q over p")
        p_.add_argument("--m", type=int, required=True, help="half the extension degree s = 2m")
        p_.add_argument("--out", help="write the report to this file instead of stdout")
        p_.add_argument("--config", help="key=value file for budgets and worker count")

    p_pred = sub.add_parser("predict", help="closed-form weight distribution")
    common(p_pred)
    p_pred.add_argument("--family", choices="CDE", required=True)
    p_pred.add_argument("--format", choices=("json", "csv"), default="json")

    p_ver = sub.add_parser("verify", help="prediction vs. enumeration oracle")
    common(p_ver)
    p_ver.add_argument("--family", choices="CDE", required=True)
    p_ver.add_argument("--tier", choices=tuple(TIER_BUDGETS), default="quick")
    p_ver.add_argument("--format", choices=("json", "csv"), default="json")
    p_ver.add_argument("--workers", type=int, help="worker processes "
                       "(default: the CPUs this process may run on)")
    p_ver.add_argument("--modulus-rank", type=int, default=0,
                       help="use the k-th smallest primitive modulus instead")

    p_wit = sub.add_parser("witness", help="Hermitian-matrix graph checks")
    common(p_wit)
    return parser


def cmd_predict(args, p: int, e: int) -> int:
    _load()
    dist = predict(p**e, args.m, args.family)
    if args.format == "csv":
        _emit(_distribution_csv(dist), args.out)
    else:
        _emit(json.dumps(_distribution_doc(dist), indent=2) + "\n", args.out)
    return 0


def cmd_verify(args, p: int, e: int, config: dict) -> int:
    budgets = dict(TIER_BUDGETS)
    for tier in budgets:
        if f"{tier}_budget" in config:
            budgets[tier] = config[f"{tier}_budget"]
    workers = args.workers or config.get("workers") or default_workers()
    choose_oracle(p**e, args.m, args.family, args.tier, budgets[args.tier])
    check_modulus_rank(p, 2 * e * args.m, args.modulus_rank)
    _load()
    report = verify(p**e, args.m, args.family, tier=args.tier,
                    workers=workers, modulus_rank=args.modulus_rank,
                    budgets=budgets, progress=_progress_printer())
    if args.format == "csv":
        _emit(_distribution_csv(report.oracle), args.out)
    else:
        doc = {
            "q": report.q, "m": report.m, "family": report.family,
            "tier": report.tier, "oracle_kind": report.oracle_kind,
            "equal": report.equal, "first_diff": report.first_diff,
            "runtime_seconds": round(report.runtime_seconds, 6),
            "work_count": report.work_count, "workers": report.workers,
            "predicted": _distribution_doc(report.predicted),
            "oracle": _distribution_doc(report.oracle),
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0 if report.equal else 1


def cmd_witness(args, p: int, e: int, config: dict) -> int:
    budget = config.get("witness_budget", DEFAULT_WITNESS_BOUND)
    check_witness_budget(p**e, args.m, budget)
    _load()
    ctx = make_field(p, e, 2 * args.m)
    spectrum = cayley_spectrum(ctx, budget)
    r1 = rank1_count(ctx, budget)
    iso = verify_isomorphism(ctx, budget)
    # the closed-form eigenvalues are distinct, so zip gives the multiset
    predicted = dict(zip(eigenvalues(p**e, args.m), frequencies(p**e, args.m)))
    equal = spectrum == predicted
    first_diff = None if equal else next(
        eig for eig in sorted(spectrum.keys() | predicted.keys())
        if spectrum.get(eig) != predicted.get(eig))
    ordered = sorted(spectrum.items(), key=lambda kv: (-abs(kv[0]), -kv[0]))
    doc = {
        "q": p**e, "m": args.m,
        "hermitian_count": (p**e) ** (args.m**2),
        "rank1_count": r1,
        "spectrum": [[eig, mult] for eig, mult in ordered],
        "equal": equal, "first_diff": first_diff,
        "isomorphism_ok": iso.ok,
    }
    if iso.notes:
        doc["isomorphism_notes"] = iso.notes
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0 if equal and iso.ok else 1


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # exact counts of any length
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _read_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    p, e = _resolve_q(parser, args)
    if args.m < 1:
        parser.error("--m must be >= 1")
    if args.command == "verify":
        if args.modulus_rank < 0:
            parser.error("--modulus-rank must be >= 0")
        if args.workers is not None and args.workers < 1:
            parser.error("--workers must be >= 1")
    try:
        if args.command == "predict":
            return cmd_predict(args, p, e)
        if args.command == "verify":
            return cmd_verify(args, p, e, config)
        if args.command == "witness":
            return cmd_witness(args, p, e, config)
    except BudgetExceeded as exc:
        doc = {"q": p**e, "m": args.m}
        doc.update((key, getattr(args, key)) for key in ("family", "tier") if key in args)
        doc.update(refused=True, work_estimate=exc.estimate, budget=exc.budget,
                   message=str(exc))
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
        return 3
    except ModulusRankError as exc:
        parser.error(str(exc))
    except Exception as exc:  # noqa: BLE001 - contract: internal errors exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
