"""Benchmark for kahlercheck: time to verdict on four workloads.

    python3 kcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

kahlercheck is imported from src/ and the corpus read from inputs/ of the
source tree that holds this directory.  One closed-loop client hands
inputs one at a time to the command-line entry point, cli.main(argv), in
this process, capturing its output; a pass is one list of seeded inputs
(see workloads.py) and whole passes repeat until the pass boundary nearest
to S seconds of input time.  Every output is checked against an
independent answer (oracles.py, check.py).  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.

--trace 0 reports the end-to-end metrics:
  inputs_per_s     completed inputs per second of input time
  verdict_ms_p50   median time from handing an input to cli.main until its
  verdict_ms_p90   report is rendered, and its 90th percentile
  setup_s          median over fresh interpreters, started between passes
                   and at the end, of the time to import kahlercheck and
                   build the argument parser
  peak_rss_mb      peak resident memory of this process
  decided_frac     share of inputs known not to be Kahler on which every
                   expected obstruction fired
--trace 1 runs each pass twice, untraced and traced (tracer.py), and reports
per-layer self times and counts per input, repeat-work ratios and the
tracing overhead; the spans go to kcbench_out/.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import check  # noqa: E402
from workloads import (WORKLOADS, corpus_files, make_pass,  # noqa: E402
                       warmup_cases)

SETUP_SAMPLES = 11  # at least; two more after every pass
WARMUP_S = 1.0  # untimed work first: the processor needs about 1 s to speed up
WALL_LIMIT_S = 150  # no pass starts after this, so a run ends within 180 s
DEADLINE_S = 165    # and no input starts after this

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import kahlercheck
from kahlercheck import cli
cli.make_parser()
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {"inputs_per_s": "1/s", "verdict_ms_p50": "ms",
                    "verdict_ms_p90": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB", "decided_frac": "ratio"}

# per-layer metric -> span names whose self time it sums, per input
SELF_TIME = {
    "cli.battery_s": ("cli.main", "cli.make_parser", "cli.cmd_analyze",
                      "cli.cmd_hom", "cli.cmd_ext", "cli.cmd_surface",
                      "cli.analyze", "cli.analyze_hom"),
    "cli.emit_s": ("cli.build_report", "cli.emit_report"),
    "presentation.parse_s": ("presentation.parse_file",
                             "presentation.parse_presentation",
                             "presentation.parse_word_in"),
    "presentation.verify_s": ("presentation.verify_hom",),
    "homology.h1_s": ("homology.h1", "homology.h1_parity_check"),
    "homology.cup_s": ("homology.cup_injectivity_check",
                       "homology.cup_product", "homology.h1_cocycle_basis"),
    "intlinalg.snf_s": ("intlinalg.smith_normal_form",),
    "intlinalg.dense_s": ("intlinalg.rref", "intlinalg.rational_rank",
                          "intlinalg.nullspace", "intlinalg.solve_rational",
                          "intlinalg.QSpace.add", "intlinalg.QSpace.contains",
                          "intlinalg.QSpace.from_rows",
                          "intlinalg.QSpace.intersection"),
    "lieranks.algebra_build_s": ("lieranks.TruncatedQuotientAlgebra",),
    "lieranks.magnus_s": ("lieranks.magnus_expansion",
                          "lieranks.magnus_minus_one"),
    "lieranks.holonomy_s": ("lieranks.holonomy_ranks",),
    "lieranks.strictness_s": ("lieranks.strictness_check",),
    "lieranks.derived_s": ("lieranks.derived_image_check",),
    "extensions.recognize_s": ("extensions.recognize_extension",),
    "extensions.class_s": ("extensions.class_and_torsion",),
    "extensions.section_s": ("extensions.section_search",
                             "extensions.pushout_extension"),
    "extensions.abel_s": ("extensions.abelianization_obstruction",
                          "extensions.canonical_class2_extension"),
    "surface.dehn_s": ("surface.dehn_trivial",),
}

# per-layer metric -> tracer counter, per input
COUNT = {
    "presentation.parse_letters": "parse.letters",
    "presentation.verify_calls": "verify.calls",
    "homology.cup_calls": "cup.calls",
    "intlinalg.snf_calls": "snf.calls",
    "intlinalg.qspace_adds": "qspace.adds",
    "lieranks.algebra_builds": "algebra.builds",
    "lieranks.monomials": "algebra.monomials",
    "lieranks.echelon_inserts": "echelon.inserts",
    "surface.dehn_calls": "dehn.calls",
    "surface.dehn_letters": "dehn.letters",
}

# per-layer metric -> (numerator counter, denominator counter)
RATIO = {
    "homology.cup_repeat_frac": ("cup.repeats", "cup.calls"),
    "intlinalg.snf_repeat_frac": ("snf.repeats", "snf.calls"),
    "lieranks.algebra_repeat_frac": ("algebra.repeats", "algebra.calls"),
    "lieranks.echelon_useful_ratio": ("echelon.useful", "echelon.inserts"),
}


def fail(message):
    sys.stderr.write("kcbench: %s\n" % message)
    sys.exit(2)


def import_package(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "kahlercheck", "__init__.py")):
        fail("no kahlercheck sources under %s" % src)
    sys.path.insert(0, src)
    import kahlercheck
    from kahlercheck import cli
    if not os.path.abspath(kahlercheck.__file__).startswith(src + os.sep):
        fail("imported kahlercheck from %s, not %s" % (kahlercheck.__file__,
                                                       src))
    return kahlercheck, cli


def setup_samples(root, count):
    """Seconds a fresh interpreter takes to import kahlercheck and build the
    argument parser, once per interpreter."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE,
             os.path.join(root, "src")],
            cwd=root, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            fail("set-up interpreter failed: %s" % proc.stderr.strip())
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def invoke(main, argv):
    """Run cli.main(argv) with output captured; returns (exit code, stdout,
    stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception:
            rc = "raised"
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


def write_inputs(cases, workdir):
    """Write file inputs; returns one argv per case."""
    argvs = []
    for i, case in enumerate(cases):
        argv = list(case.argv)
        if case.text is not None:
            path = os.path.join(workdir, "%04d.txt" % i)
            with open(path, "w") as fh:
                fh.write(case.text)
            argv = [path if a == "{file}" else a for a in argv]
        argvs.append(argv)
    return argvs


def canonical(case, rc, out):
    """Report text for the digest, with the temporary path replaced."""
    try:
        report = json.loads(out)
        report["input"]["path"] = case.id
        out = json.dumps(report, sort_keys=True)
    except (ValueError, KeyError, TypeError):
        pass
    return "%s\n%r\n%s\n" % (case.id, rc, out)


class Run:
    def __init__(self, cli, tracer):
        self.cli = cli
        self.tracer = tracer
        self.latencies = []
        self.by_slot = {}
        self.traced_s = 0.0
        self.untraced_s = 0.0
        self.attempted = 0
        self.failures = []
        self.decided = []
        self.setup = []
        self.digest = hashlib.sha256()

    def run_pass(self, cases, argvs, first, traced, deadline):
        for case, argv in zip(cases, argvs):
            if time.monotonic() > deadline:
                return
            if traced:
                self.tracer.begin_input(case.id)
            rc, out, err, elapsed = invoke(self.cli.main, argv)
            if traced:
                self.traced_s += elapsed
            else:
                self.untraced_s += elapsed
                self.latencies.append(elapsed)
                slot = case.id.split(".", 1)[1]
                self.by_slot.setdefault(slot, []).append(elapsed)
            self.attempted += 1
            errors, decided = check(case.expect, rc, out)
            if errors:
                self.failures.append((case.id, errors, err.strip()[-300:]))
            if decided is not None:
                self.decided.append(decided)
            if first and not traced:
                self.digest.update(canonical(case, rc, out).encode())


def run_workload(args, root, kahlercheck, cli):
    corpus = corpus_files(root)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(kahlercheck)
    run = Run(cli, tracer)
    wall_start = time.monotonic()
    workdir = tempfile.mkdtemp(prefix=".kcbench-", dir=root)
    try:
        warmup = write_inputs(warmup_cases(args.seed), workdir)
        while time.monotonic() - wall_start < WARMUP_S:
            for argv in warmup:
                invoke(cli.main, argv)
        index = 0
        while True:
            cases = make_pass(args.workload, args.seed, index, corpus)
            argvs = write_inputs(cases, workdir)
            modes = [False]
            if tracer:  # alternate which half runs first
                modes = [False, True] if index % 2 == 0 else [True, False]
            for traced in modes:
                if traced:
                    tracer.install()
                try:
                    run.run_pass(cases, argvs, index == 0, traced,
                                 wall_start + DEADLINE_S)
                finally:
                    if traced:
                        tracer.uninstall()
            index += 1
            if not tracer:  # spread over the run, like the input times
                run.setup += setup_samples(root, 2)
            used = run.untraced_s + run.traced_s
            if used + (used / index) / 2 >= args.seconds:
                break
            if time.monotonic() - wall_start > WALL_LIMIT_S:
                print("stopped early: wall-clock limit of %d s" % WALL_LIMIT_S)
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return run, index


def end_to_end(run):
    lat = run.latencies
    p90 = (statistics.quantiles(lat, n=10, method="inclusive")[8]
           if len(lat) > 1 else lat[0])
    return {
        "inputs_per_s": len(lat) / run.untraced_s,
        "verdict_ms_p50": statistics.median(lat) * 1000.0,
        "verdict_ms_p90": p90 * 1000.0,
        "setup_s": statistics.median(run.setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "decided_frac": (sum(run.decided) / len(run.decided)
                         if run.decided else 0.0),
    }


def per_layer(run):
    tracer = run.tracer
    inputs = len(run.latencies)  # traced inputs: one per untraced input
    selfs = tracer.self_times()
    counts = tracer.counts
    out = {}
    for metric, names in SELF_TIME.items():
        out[metric] = (sum(selfs[n] for n in names) / inputs, "s/input")
    for metric, key in COUNT.items():
        out[metric] = (counts[key] / inputs, "count/input")
    for metric, (num, den) in RATIO.items():
        out[metric] = (counts[num] / counts[den] if counts[den] else 0.0,
                       "ratio")
    out["trace.overhead_frac"] = (
        (run.traced_s - run.untraced_s) / run.untraced_s, "ratio")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    if not os.path.isdir(os.path.join(root, "inputs")):
        fail("no inputs/ corpus in %s" % root)
    kahlercheck, cli = import_package(root)
    run, passes = run_workload(args, root, kahlercheck, cli)
    if not args.trace:
        run.setup += setup_samples(root, SETUP_SAMPLES - len(run.setup))

    print("workload %s, seed %d, %d passes, %d inputs timed untraced"
          % (args.workload, args.seed, passes, len(run.latencies)))
    for case_id, errors, err in run.failures:
        print("FAILED %s: %s%s" % (case_id, "; ".join(errors),
                                   (" | " + err) if err else ""))
    print("failed_frac = %.6f (%d of %d)" % (
        len(run.failures) / run.attempted, len(run.failures), run.attempted))
    print("decided: %d of %d inputs with an expected obstruction"
          % (sum(run.decided), len(run.decided)))
    print("report_digest = %s (first pass)" % run.digest.hexdigest())
    slots = sorted((statistics.median(v), k) for k, v in run.by_slot.items())
    print("median ms per slot: " + ", ".join("%s %.1f" % (k, t * 1000)
                                             for t, k in slots))
    if args.trace:
        metrics = per_layer(run)
        out_dir = os.path.join(root, "kcbench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "spans-%s-%d.jsonl"
                            % (args.workload, args.seed))
        run.tracer.write(path)
        print("spans: %d written to %s" % (len(run.tracer.spans),
                                             os.path.relpath(path, root)))
    else:
        metrics = {k: (v, END_TO_END_UNITS[k])
                   for k, v in end_to_end(run).items()}
    for name, (value, unit) in metrics.items():
        print("%s = %r %s" % (name, value, unit))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
