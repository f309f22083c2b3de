"""quivercert benchmark: certificate wall time on the E1/E2/E3 workloads.

Usage, from the root of a checkout:

    python3 qcbench/run.py --workload e1_charp --seed 1 --seconds 38 --trace 0

A run starts WORKERS fresh interpreters one after another.  Each imports
quivercert and builds the workload's inputs from ``--seed`` (the set-up,
timed once per interpreter), then runs rounds of the workload's
certificates, each round in a child forked from the set-up state, until
the next round would end after its share of ``--seconds`` (always at
least one round).  A round therefore starts from the same state as in a
fresh interpreter and can reuse nothing another round computed.  The
load is a closed loop in one thread: certificates are computed one after
another, and one round runs at a time.  The rounds of E1 differ in their
verification samples and gamma/decomposition seeds, drawn from the seed
and the round number; those of E2 and E3 repeat the same work.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: import quivercert and build the inputs, median over the
  interpreters;
- ``wall_s``: one round, from the first certificate call to the last
  certificate returned, less the reference samples taken in between;
  median over the rounds;
- ``cpu_s``: process CPU time of the same, median over the rounds;
- ``peak_rss_mb``: peak resident memory of a round's process, median.

The machine's speed drifts on a shared host, so the three times are
scaled to a fixed speed before the medians are taken.  Every round
samples the reference kernel (``ref.py``) in fresh interpreters between
its certificates.  A round's times are multiplied by the mean of
``REF_S`` / kernel time over its own samples, and the set-up times by
that mean over all the run's samples.

``--trace 1`` runs the same untraced rounds, then one more interpreter
that sets up and runs round 0 under the tracer, and reports the
per-layer metrics and the tracing overhead.

Every certificate is checked against the paper; its digest
(``io.payload_hash`` of its value and witnesses, no timings) is printed
for round 0, and the traced round, which repeats round 0, must produce
the same digests.  The last line of standard output is one JSON object.
The exit code is 0 only when every certificate was computed and passed
its gate.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

from ref import REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKERS = 3  # fresh interpreters per run; set-up is timed once in each
REF_EVERY_S = 1.0  # certificate time between two reference samples
RUN_TIMEOUT_S = 170
WORKLOAD_NAMES = ("e1_charp", "e1_rational", "e2_layering", "e3_kunneth")


class Ledger:
    """Counts, times, checks and digests the certificates of one round.

    With ``reference`` set, it also samples the reference kernel before
    the first certificate and then before any certificate that follows
    REF_EVERY_S or more of certificate time since the last sample, so
    that the samples spread over the round.  The samples are not timed
    as part of the round."""

    def __init__(self, tracer=None, reference=None):
        self.tracer = tracer
        self.reference = reference
        self.attempted = 0
        self.failures = []  # [label, message]
        self.wall_s = self.cpu_s = 0.0  # spent computing certificates
        self.refs = []  # [wall_s, cpu_s] per reference sample
        self._since_ref = 0.0
        self._done = []  # (label, value, payload, note)

    def __call__(self, label, compute, payload, check=None, note=None):
        if self.reference is not None and (not self.refs or self._since_ref >= REF_EVERY_S):
            self.refs.append(self.reference())
            self._since_ref = 0.0
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.cert_id = label
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            value = compute()
        except Exception:  # a raising certificate is a counted failure
            self.failures.append([label, traceback.format_exc(limit=3)])
            return None
        finally:
            wall_s = time.perf_counter() - t0
            self.wall_s += wall_s
            self.cpu_s += time.process_time() - c0
            self._since_ref += wall_s
            if self.tracer is not None:
                self.tracer.cert_id = None
        problem = check(value) if check else None
        if problem:
            self.failures.append([label, problem])
        self._done.append((label, value, payload, note(value) if note else ""))
        return value

    def certificates(self) -> list:
        """[label, digest, note] per certificate; run after the timed region."""
        from quivercert.io import payload_hash
        return [[label, payload_hash(payload(value)), note]
                for label, value, payload, note in self._done]


def _measure(wl, ledger, round_no: int) -> dict:
    """Run one round of ``wl`` through ``ledger``."""
    wl.run_round(ledger, round_no)
    return {
        "wall_s": ledger.wall_s, "cpu_s": ledger.cpu_s, "refs": ledger.refs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": ledger.attempted, "failures": ledger.failures,
        "certificates": ledger.certificates(),
    }


def _forked_round(wl, round_no: int) -> dict:
    """Run one round in a child forked from the set-up state, so that no
    round sees what another one left behind."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            out = _measure(wl, Ledger(reference=_reference), round_no)
            with os.fdopen(write_fd, "w") as pipe:
                pipe.write(json.dumps(out))
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"round {round_no} exited with status {status}")
    return json.loads(data)


def _reference() -> list[float]:
    """[wall_s, cpu_s] of the reference kernel, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "ref.py")],
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def _speed(refs, k: int) -> float:
    """Mean of REF_S / kernel time over reference samples (k = 0: wall,
    1: CPU): how fast the machine ran, relative to the reference speed."""
    return statistics.fmean(REF_S / ref[k] for ref in refs)


def _worker(workload: str, seed: int, first_round: int, budget_s: float,
            trace: bool) -> dict:
    """Set up once in this fresh interpreter, then run rounds from
    ``first_round`` on until the next one would end after ``budget_s``
    (always at least one).  A traced worker runs one round in-process,
    set-up included, under the tracer."""
    start = time.perf_counter()
    import workloads
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.cert_id = "setup"
    try:
        wl = workloads.WORKLOADS[workload](seed)
        setup_s = time.perf_counter() - start
        if tracer is not None:
            tracer.cert_id = None
            traced = _measure(wl, Ledger(tracer), first_round)
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        traced["layers"] = tracer.layer_metrics()
        return {"setup_s": setup_s, "rounds": [traced]}
    rounds = []
    t0 = last = time.perf_counter()
    while True:
        rounds.append(_forked_round(wl, first_round + len(rounds)))
        now = time.perf_counter()
        if now - t0 + (now - last) > budget_s:
            break
        last = now
    return {"setup_s": setup_s, "rounds": rounds}


def _spawn_worker(args, first_round: int, budget_s: float, trace: bool,
                  deadline: float) -> dict:
    """Run ``_worker`` in a fresh interpreter in its own process group, and
    kill the whole group (forked rounds included) if it overruns."""
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--worker", str(first_round),
         "--budget", repr(budget_s), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--trace", str(int(trace))],
        stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.returncode != 0:  # overran, failed or interrupted: end its rounds too
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker interpreter exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _require_sources():
    if not os.path.isfile(os.path.join(SRC, "quivercert", "__init__.py")):
        print(f"qcbench: no quivercert package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--budget", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    _require_sources()

    if args.worker is not None:
        print(json.dumps(_worker(args.workload, args.seed, args.worker, args.budget,
                                 bool(args.trace))))
        return 0

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so workers get killed
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    setups, rounds = [], []
    for _ in range(WORKERS):
        out = _spawn_worker(args, len(rounds), args.seconds / WORKERS, False, deadline)
        setups.append(out["setup_s"])
        rounds += out["rounds"]
    traced = _spawn_worker(args, 0, 0.0, True, deadline)["rounds"][0] if args.trace else None

    attempted = sum(r["attempted"] for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    reference = rounds[0]["certificates"]
    wall_s = statistics.median(r["wall_s"] for r in rounds)
    if traced:
        attempted += traced["attempted"]
        failures += traced["failures"]
        if traced["certificates"] != reference:
            failures.append(["traced", "certificates differ from untraced round 0"])
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in traced["layers"].items()}
        metrics["trace.overhead_ratio"] = {"value": traced["wall_s"] / wall_s,
                                           "unit": "ratio"}
    else:
        # times at the reference speed: a round's times are scaled by the
        # speed its own reference samples saw, set-up by that of the whole run
        run_speed = _speed([ref for r in rounds for ref in r["refs"]], 0)
        metrics = {
            "setup_s": {"value": statistics.median(setups) * run_speed, "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] * _speed(r["refs"], 0)
                                                  for r in rounds), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] * _speed(r["refs"], 1)
                                                 for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                            "unit": "MB"},
        }

    for label, digest, note in reference:
        print(f"cert {label} {digest} {note}".rstrip())
    for label, message in failures:
        print(f"FAILED {label}: {message.strip()}")
    print(f"run {args.workload} seed={args.seed} rounds={len(rounds)} "
          f"setup_s={[round(t, 3) for t in setups]} "
          f"round_wall_s={[round(r['wall_s'], 3) for r in rounds]} "
          f"round_speed={[round(_speed(r['refs'], 0), 3) for r in rounds]}")
    print(f"measured, unscaled: setup {statistics.median(setups):.6g} s, "
          f"round wall {wall_s:.6g} s (medians)")
    print(f"metric fail_ratio {len(failures) / attempted:.6f} ratio "
          f"({len(failures)} failures in {attempted} certificates)")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
