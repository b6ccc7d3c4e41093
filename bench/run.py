"""Seeded benchmark of rhoarb's cross-validated verdicts and CLI commands.

Usage (from the repository root):

    python3 bench/run.py --workload lp_cross --seed 1 --seconds 25 --trace 0

One process, BLAS pinned to one thread.  The program is imported from
src/ next to this directory and driven only through rhoarb.cross_validate
and rhoarb.cli.main.  A run sets up its inputs several times (reporting the
median), then attempts whole rounds of operations until --seconds have
passed and enough operations completed for the tail percentile (or, at the
latest, until HARD_LIMIT x --seconds have passed), then checks every answer
against computations made apart from the program.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes over the same rounds and reports per-layer metrics and the
tracing overhead.  Exit status: 0 when every check passed, 1 when a check
failed, 2 when the program cannot be found or the arguments are wrong.
"""

import time

T_PROCESS = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# OpenBLAS otherwise starts one thread per core; pin before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
HARD_LIMIT = 2.0        # a run stops after this many times --seconds, however few completed


def _die(msg: str, code: int = 2):
    sys.stderr.write(f"bench: {msg}\n")
    raise SystemExit(code)


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "rhoarb", "__init__.py")):
        _die(f"no program source at {SRC}")
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import rhoarb
    import rhoarb.cli  # noqa: F401
    if os.path.dirname(os.path.dirname(os.path.abspath(rhoarb.__file__))) != SRC:
        _die(f"rhoarb imported from {rhoarb.__file__}, not from {SRC}")
    return rhoarb


def _fingerprint(ok, out):
    """What a repeat of an operation must reproduce: the outcome class and,
    when it completed, its verdict-bearing output.  Keeping this instead of
    every answer keeps peak memory independent of how many rounds ran."""
    if not ok:
        return (False, type(out).__name__)
    if isinstance(out, tuple):                       # CLI: (exit code, output text)
        return (True, out[0], hash(out[1]))
    return (True, out.status, out.rho1, out.primal.verdict, out.dual.verdict)


def _run_ops(ops, results, tracer=None):
    """Attempt each op once; return (latencies of completed ops, failures).

    results[key] = [op, first (ok, out), fingerprints of the later repeats].
    """
    lat, failed = [], 0
    for op in ops:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.span("op"):
                    out = op.run()
            ok = True
        except Exception as exc:  # an operation may fail; record it and go on
            out = exc
            ok = False
        dt = time.perf_counter() - t0
        if ok and op.meta.get("argv") is not None and out[0] == 1:
            ok = False              # the CLI's own error exit
        entry = results.setdefault(op.key, [op, None, []])
        if entry[1] is None:
            entry[1] = (ok, out)
        else:
            entry[2].append(_fingerprint(ok, out))
        if ok:
            lat.append(dt)
        else:
            failed += 1
    return lat, failed


def _tail(lat, q):
    """Nearest-rank percentile q of the latencies."""
    s = sorted(lat)
    return s[max(math.ceil(q * len(s)) - 1, 0)]


def _check_all(results, problems, failures):
    """Check every first answer independently and every repeat against the
    first; collect the messages of what failed."""
    import checks
    import rhoarb

    problems += [f"self-test: {p}" for p in checks.self_test()]
    for key, (op, (ok, out), repeats) in results.items():
        meta = op.meta
        if any(fp != _fingerprint(ok, out) for fp in repeats):
            problems.append(f"{key}: a repeat of the operation gave another answer")
        if not ok:
            failures[key] = (f"{type(out).__name__}: {out}" if isinstance(out, BaseException)
                             else f"exit {out[0]}")
            continue
        try:
            if "argv" in meta:
                code, text = out
                checks.CLI_CHECKS[meta["cmd"]](meta, code, text)
                continue
            spec = meta["spec"].to_json_dict()
            market = meta["market"]
            if spec["kind"] in ("EVAR", "TNORM"):
                ref = checks.entropic_reference(market, spec)
            else:
                ref = checks.lp_reference(market, spec)
            ans = checks.cross_answer(out)
            if "MAX_ITER" in ans["annotations"]:
                # cross_validate drops Kelley's gap; ask the primal route again.
                ref["gap"] = float(rhoarb.compute_rho1(market, meta["spec"]).gap)
            checks.check_cross(market, spec, ans, ref, density=meta.get("density"))
            twin = meta.get("twin_of")
            anchor = results.get(twin, [None, (False, None)])[1] if twin else (False, None)
            if anchor[0]:
                checks.expect(checks.close(out.rho1, anchor[1].rho1, checks.LP_RTOL),
                              "basis-point twin moved rho1")
                checks.expect(out.primal.verdict == anchor[1].primal.verdict,
                              "basis-point twin changed the verdict")
        except checks.CheckError as exc:
            problems.append(f"{key}: {exc}")
        except Exception:  # a crash inside a check is a failed check
            problems.append(f"{key}: check crashed\n{traceback.format_exc()}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_imp = time.perf_counter()
    rhoarb = _import_program()
    import_s = time.perf_counter() - t_imp + (t_imp - T_PROCESS)
    sys.path.insert(0, HERE)
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _die(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    out_dir = os.path.join(OUT, args.workload)
    os.makedirs(out_dir, exist_ok=True)

    # Set-up: inputs, validation, files, one untimed warm-up; repeated.
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        rounds = wl.make_rounds(args.seed, out_dir)
        for market in workloads.markets_of(rounds):
            bad = rhoarb.validate_market(market)
            if bad:
                _die(f"generated an invalid market: {bad}", 1)
        rounds[0][0].run()
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    results: dict = {}
    lat: list[float] = []
    round_p50: list[float] = []
    attempted = failed = 0
    metrics: dict = {}
    if args.trace == 0:
        t_begin = time.perf_counter()
        r = 0
        while True:
            ops = rounds[r % len(rounds)]
            got, bad = _run_ops(ops, results)
            lat += got
            if got:
                round_p50.append(statistics.median(got))
            attempted += len(ops)
            failed += bad
            r += 1
            elapsed = time.perf_counter() - t_begin
            if ((elapsed >= args.seconds and len(lat) >= wl.min_ops)
                    or elapsed >= HARD_LIMIT * args.seconds):
                break
        wall = time.perf_counter() - t_begin
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Latencies are left out when too few operations completed to give them.
        # The median is taken per round and averaged, so a slow spell of the
        # host counts by its length, as in the rate; one median over the run
        # would jump to whichever speed held for most of it.
        metrics["verdicts_per_s"] = (len(lat) / wall, "1/s")
        if round_p50:
            metrics["verdict_s_p50"] = (statistics.fmean(round_p50), "s")
        if len(lat) >= wl.min_ops:
            metrics["verdict_s_tail"] = (_tail(lat, wl.tail_q), "s")
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (rss_mb, "MB")
        sys.stderr.write(f"bench: {args.workload} seed {args.seed}: {r} rounds, "
                         f"{len(lat)} completed in {wall:.2f} s, tail = p{wl.tail_q * 100:g}\n")
    else:
        tracer = spans.Tracer()
        plain_t = traced_t = 0.0
        plain_n = traced_n = traced_attempted = 0
        t_begin = time.perf_counter()
        while True:
            for traced in (False, True):
                if traced:
                    spans.install(tracer)
                    tracer.enabled = True
                t0 = time.perf_counter()
                got, bad = _run_ops(rounds[0], results, tracer if traced else None)
                dt = time.perf_counter() - t0
                attempted += len(rounds[0])
                failed += bad
                if traced:
                    traced_n += len(got)
                    traced_attempted += len(rounds[0])
                else:
                    plain_n += len(got)
                if traced:
                    tracer.enabled = False
                    tracer.uninstall()
                    traced_t += dt
                else:
                    plain_t += dt
            if time.perf_counter() - t_begin >= args.seconds:
                break
        plain_rate, traced_rate = plain_n / plain_t, traced_n / traced_t
        metrics.update(spans.layer_metrics(tracer.spans, traced_attempted))
        if plain_n and traced_n:
            metrics["trace.overhead_pct"] = (100.0 * (1.0 - traced_rate / plain_rate), "%")
        path = os.path.join(OUT, f"{args.workload}.spans.jsonl.gz")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            spans.write_spans(tracer.spans, fh)
        sys.stderr.write(f"bench: {len(tracer.spans)} spans written to {path}; "
                         f"untraced {plain_rate:.4g}/s, traced {traced_rate:.4g}/s\n")

    problems: list[str] = []
    failures: dict[str, str] = {}
    _check_all(results, problems, failures)
    for key, msg in sorted(failures.items()):
        sys.stderr.write(f"bench: failed operation {key}: {msg}\n")
    for p in problems:
        sys.stderr.write(f"bench: CHECK FAILED {p}\n")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
