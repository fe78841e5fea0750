"""One benchmark case in a fresh interpreter.

    python3 perfbench/probe.py [--trace] cli ARG...       traceweight.cli.main(ARG...)
    python3 perfbench/probe.py [--trace] grid RANK_SEED PART  criterion-5 grid set-up
    python3 perfbench/probe.py [--trace] expsum RANK_SEED criterion-3 exponential sums

The parent puts the repository's src/ on PYTHONPATH.  The probe prints one
JSON object: its own start and end times, the case result, and (with
--trace) the spans and counts recorded around the calls into each layer.
"""

import time

T_START = time.monotonic()

import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402

import tracer as tracing  # noqa: E402


def run_cli(main_fn, argv):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main_fn(argv)
    return {"rc": rc, "stdout": out.getvalue()}


def run_grid(seed, part):
    """Cold make_field + build_code (C, D, E) + predict over one part of the
    grid, with the checks of criterion 5 on every result."""
    from traceweight import codes, fields, spectra
    from workloads import grid_chunk, modulus_rank_for
    setup = predict_s = 0.0
    errors = []
    pairs = grid_chunk(part)
    for q, m in pairs:
        p, e = fields.split_prime_power(q)
        rank = modulus_rank_for(seed, p, 2 * e * m)
        families = "CD" if (q, m) == (2, 1) else "CDE"
        t0 = time.monotonic()
        ctx = fields.make_field(p, e, 2 * m, rank)
        specs = [codes.build_code(ctx, f) for f in families]
        t1 = time.monotonic()
        dists = [spectra.predict(q, m, f) for f in families]
        t2 = time.monotonic()
        setup += t1 - t0
        predict_s += t2 - t1
        for spec, dist in zip(specs, dists):
            k = {"C": m * m, "D": m * m + 2 * m, "E": m * m + 2 * m + 1}[spec.family]
            if spec.k != k or dist.k != k or dist.total() != q**k:
                errors.append(f"{spec.family}({q},{m}): k={spec.k}, "
                              f"predicted k={dist.k}, total={dist.total()}")
    return {"setup_s": setup, "predict_s": predict_s, "pairs": len(pairs),
            "errors": errors}


def run_expsum(seed):
    """big_T, s_histogram and r_histogram over every form at each size,
    checked against the rank-driven rows."""
    from traceweight import fields, quadforms
    from workloads import EXPSUM_SIZES, modulus_rank_for, offset_sum_rows, shift_sum_rows
    ctxs = [fields.make_field(p, e, 2 * m, modulus_rank_for(seed, p, 2 * e * m))
            for p, e, m in EXPSUM_SIZES]
    forms, errors = 0, []
    t0 = time.monotonic()
    for ctx in ctxs:
        q, s = ctx.q, ctx.s
        sub = ctx.subfield(q)
        for form in quadforms.all_forms(ctx):
            forms += 1
            r, eps = form.rank, form.epsilon
            t = quadforms.big_T(form)
            if t != (-1) ** (r // 2) * q ** (s - r // 2):
                errors.append(f"big_T {t} at rank {r}, q={q}")
            if quadforms.s_histogram(form) != shift_sum_rows(q, s, r, eps):
                errors.append(f"s_histogram at rank {r}, q={q}")
            for lbl in range(1, q):
                if quadforms.r_histogram(form, sub.from_label(lbl)) != \
                        offset_sum_rows(q, s, r, eps):
                    errors.append(f"r_histogram at rank {r}, q={q}")
    return {"expsum_s": time.monotonic() - t0, "forms": forms, "errors": errors[:5]}


def main(argv):
    trace = argv[0] == "--trace"
    if trace:
        argv = argv[1:]
    mode, args = argv[0], argv[1:]
    tr = tracing.Tracer()
    t0 = time.monotonic()
    tr.record("probe.setup", T_START, t0)
    import traceweight.cli  # noqa: F401 - the import a user of the CLI pays
    tr.record("cli.import", t0, time.monotonic())
    if trace:
        tr.install()
    if mode == "cli":
        from traceweight import cli
        result = run_cli(tr.timed("cli.main", cli.main) if trace else cli.main, args)
    elif mode in ("grid", "expsum"):
        # the probe's own loop is a span too, so that the work it does
        # outside the wrapped functions (checks, form ranks) is attributed
        fn = run_grid if mode == "grid" else run_expsum
        result = (tr.timed(f"probe.{mode}", fn) if trace else fn)(*map(int, args))
    else:
        raise SystemExit(f"unknown probe mode {mode!r}")
    doc = {"t_start": T_START, "result": result,
           "spans": tr.spans if trace else [], "counts": tr.counts}
    doc["t_end"] = time.monotonic()
    sys.stdout.write(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
