"""One benchmark target in a fresh interpreter; prints one JSON object.

    python3 bench/child.py run '{"target": "h2/d4_triality", "seed": 1, "mode": "plain"}'
    python3 bench/child.py microbench SEED

`mode` is `plain` (untraced), `setup` (untraced, `Session(spec)` only),
`spans` (layer spans) or `counts` (field operation counters).  The timed
region is `Session(spec)` plus the public call the CLI makes for the target;
digests and reference data are computed after it.  Outside `spans` mode a
speed probe samples the core while the call runs (see SpeedProbe); its own
time is taken out of `setup_s` and `work_s`, and each of the two gets the
speed measured while it ran.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction

from workloads import E6_MATRIX_SPEC, ROOT, TARGETS

sys.path.insert(0, str(ROOT / "src"))

from multiloop import checks  # noqa: E402  (the program under test, from this checkout)
from multiloop.cyclotomic import CyclotomicField  # noqa: E402
from multiloop.session import Session, SessionSpec  # noqa: E402

from tracer import OpCounter, SpanTracer  # noqa: E402


# The probe's timed pass takes this long on a core running at full speed on
# the machine the benchmark was tuned on (a 2-vCPU KVM guest on a Xeon
# Sapphire Rapids host).  It sets the unit of `speed` and nothing else.
PROBE_REF_S = 1.5e-4
PROBE_EVERY_S = 0.025
_PROBE_TERMS = [Fraction(k % 97 + 1, k % 89 + 2) for k in range(40)]


def _probe_pass():
    total = Fraction(0)
    for x in _PROBE_TERMS:
        total = total * Fraction(1, 3) + x
    return total


class SpeedProbe:
    """How fast the core ran while a call ran, sampled from inside its process.

    On a shared host a core slows by up to half when another tenant's work
    shares it, in spells from a fraction of a second to minutes, so the wall
    time of one call moves by tens of percent between runs.  Every
    PROBE_EVERY_S of wall time a SIGALRM handler times a fixed pass of exact
    rational arithmetic, like the program's own, on the core the call runs on
    (after an untimed pass that warms the caches).  `speed` is the mean over
    the samples of PROBE_REF_S / sample time: the share of full speed the core
    ran at, averaged over one phase of the call (`Session(spec)`, then the
    call).  The probe uses no code of the program, so a change to the program
    cannot change what it measures.
    """

    # a phase shorter than this many timer periods gets extra samples at its end
    MIN_SAMPLES = 4

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds spent sampling
        self._marked = 0  # samples and seconds up to the end of the previous phase
        self._spent_marked = 0.0

    def sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        _probe_pass()
        t1 = time.perf_counter()
        _probe_pass()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.spent += t2 - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def phase(self):
        """(speed, seconds spent sampling) over the phase that just ended.

        Call it right after the phase's timed region: the seconds are read
        first, and the extra samples a short phase gets are taken after it.
        """
        spent = self.spent - self._spent_marked
        while len(self.samples) - self._marked < self.MIN_SAMPLES:
            self.sample()
        samples, self._marked = self.samples[self._marked:], len(self.samples)
        self._spent_marked = self.spent
        return statistics.fmean(PROBE_REF_S / t for t in samples), spent


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _without_seed(report: dict) -> dict:
    # the seed only selects zrel's random polynomials; a passing report is
    # otherwise the same for every seed, so one reference serves all seeds
    return {k: v for k, v in report.items() if k != "seed"}


def call_fn(target):
    """The CLI's call for the target, as a function of the session."""
    kind = target["call"]
    if kind == "check":
        return lambda session: checks.run_checks(session, "all")
    if kind == "h2":
        lam, window = tuple(target["lambda"]), target["window"]
        return lambda session: checks.h2_report(session, lam, window)
    return dump_sc


def dump_sc(session):
    """`multiloop dump-sc` without the print: the records and their JSON text."""
    algebra = session.algebra
    payload = {"dim": algebra.dim, "labels": algebra.labels,
               "structure": algebra.structure_records()}
    json.dumps(payload, indent=2, sort_keys=True)
    return payload


def summarize(target, result):
    """(passed, digest, key integers) of one call's result."""
    kind = target["call"]
    if kind == "check":
        reports = {r["check"]: r for r in result}
        payload = [_without_seed(reports[name]) for name in sorted(reports)]
        ints = {
            "triples": reports["jacobi"]["extended"]["triples"] + reports["cocycle"]["triples"],
            "centre_dim": reports["centre"]["centre_dim"],
            "covered": reports["perfect"]["covered"],
            "reports": len(result),
        }
        return all(r["passed"] for r in result), digest(payload), ints
    if kind == "h2":
        ints = {k: int(result[k]) for k in
                ("h2_dim", "lower_bound", "certified", "unknowns", "constraints")}
        return bool(result["certified"]), digest(_without_seed(result)), ints
    return True, digest(result), {"records": len(result["structure"]), "dim": result["dim"]}


def session_spec(target, seed: int) -> SessionSpec:
    data = copy.deepcopy(target["spec"])
    if data["autos"] == ["e6-involution-matrix"]:
        data["autos"] = [json.loads(E6_MATRIX_SPEC.read_text())]
    data["seed"] = seed
    return SessionSpec.from_dict(data)


def run_target(name: str, seed: int, mode: str) -> dict:
    target = TARGETS[name]
    spec = session_spec(target, seed)
    call = call_fn(target)
    out = {"target": name, "mode": mode}
    tracer = counter = None
    if mode == "spans":
        tracer = SpanTracer()
        tracer.install()
    elif mode == "counts":
        counter = OpCounter()
        counter.install()

    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        if tracer is not None:
            session, setup_s = tracer.run_root("setup", Session, spec)
            result, work_s = tracer.run_root("call", call, session)
        else:
            with SpeedProbe() as probe:
                t0 = time.perf_counter()
                session = Session(spec)
                t1 = time.perf_counter()
                out["setup_speed"], in_setup = probe.phase()
                setup_s = t1 - t0 - in_setup
                if mode == "setup":
                    result, work_s = None, 0.0
                else:
                    t0 = time.perf_counter()
                    result = call(session)
                    t1 = time.perf_counter()
                    out["work_speed"], in_work = probe.phase()
                    work_s = t1 - t0 - in_work
    except Exception as exc:  # one failed call is counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        out.update(passed=False, error=f"{type(exc).__name__}: {exc}")
        return out
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    out.update(
        setup_s=setup_s,
        work_s=work_s,
        cpu_wall=cpu / wall,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if mode == "setup":
        # Session(spec) raises when the build or any of its checks fails
        out["passed"] = True
        return out
    out["passed"], out["digest"], out["ints"] = summarize(target, result)
    if tracer is not None:
        out["spans"] = tracer.records()
        out["sparse"] = tracer.sparse_stats()
    if counter is not None:
        out["counts"] = counter.counts
    return out


def _operand(field, rng):
    while True:
        x = field.from_coeffs(
            [Fraction(rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(field.degree)]
        )
        if x:
            return x


def microbench(seed: int, pairs: int = 300, batches: int = 15) -> dict:
    """Median microseconds per field op on seeded random operands.

    Conductors 1 and 3 are the fields the workloads use (Q for the A-type
    specs and the zoo, Q(zeta_3) for D4 triality).
    """
    out = {"passed": True}
    for conductor in (1, 3):
        field = CyclotomicField(conductor)
        rng = random.Random(seed * 1009 + conductor)
        a = [_operand(field, rng) for _ in range(pairs)]
        b = [_operand(field, rng) for _ in range(pairs)]
        ops = {
            "mul": lambda: [x * y for x, y in zip(a, b)],
            "add": lambda: [x + y for x, y in zip(a, b)],
            "inv": lambda: [y.inverse() for y in b],
        }
        for op, fn in ops.items():
            per_op = []
            for _ in range(batches):
                t0 = time.perf_counter()
                fn()
                per_op.append((time.perf_counter() - t0) / pairs * 1e6)
            out[f"{op}_us.c{conductor}"] = statistics.median(per_op)
        prods, invs = ops["mul"](), ops["inv"]()
        if any(p * i != x or (x + y) - y != x for p, i, x, y in zip(prods, invs, a, b)):
            out["passed"] = False
    return out


def main(argv) -> int:
    command = argv[1]
    if command == "run":
        job = json.loads(argv[2])
        print(json.dumps(run_target(job["target"], job["seed"], job["mode"])))
    elif command == "microbench":
        print(json.dumps(microbench(int(argv[2]))))
    else:
        print(f"unknown command {command!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
