"""The timed phase of one benchmark run, in a fresh single-threaded process.

    python3 bench/worker.py --inputs DIR/inputs.json --seconds S --trace 0|1 --result FILE

Runs whole rounds of the workload's operations, one caller in a closed loop,
until ``--seconds`` have passed, and writes the program's outputs (for the
checks in ``run.py``), every operation's latency with its end time, the
reference samples of the host clock, the round times and the peak RSS.
With ``--trace 1`` it alternates untraced and traced rounds, and also runs
the layer sweep.
"""

import sys

from pin import pin_threads

pin_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402
import xml.etree.ElementTree as ET  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from hostclock import HostClock  # noqa: E402
from hypkonvex import cli, lorentz, mobius, shapedoc, supportfn  # noqa: E402


class Recorder:
    """Latencies and distinct outputs per operation key.

    ``outcomes[key]`` maps each distinct JSON output to the number of times
    it came back, so the checker judges every attempt without storing each.
    ``plain[key]`` (``traced[key]`` in traced rounds) lists (end time,
    latency) of each attempt.  The host clock is sampled after each
    operation, and when a command prints; sampling time is never charged to
    an operation.
    """

    def __init__(self):
        self.plain = defaultdict(list)
        self.traced = defaultdict(list)
        self.outcomes = defaultdict(lambda: defaultdict(int))
        self.clock = HostClock()
        self.tracer = None
        self._op = 0

    def begin(self):
        """Start a new operation: spans from now on belong to it."""
        if self.tracer is not None:
            self.tracer.op = self._op
        self._op += 1

    def record(self, key, end, latency, payload):
        (self.plain if self.tracer is None else self.traced)[key].append((end, latency))
        self.outcomes[key][json.dumps(payload, sort_keys=True)] += 1

    def run(self, key, call, collect=None):
        """Time ``call()``; ``collect(result)`` reads its outputs, untimed."""
        self.begin()
        sampled = self.clock.spent
        t0 = time.perf_counter()
        try:
            result = call()
            end = time.perf_counter()
            payload = collect(result) if collect else result
        except Exception as exc:  # a failing operation is counted, never fatal
            end = time.perf_counter()
            payload = {"error": "%s: %s" % (type(exc).__name__, exc)}
        # Samples taken inside the call (when it printed) are not its time.
        latency = end - t0 - (self.clock.spent - sampled)
        self.record(key, end, latency, payload)
        self.clock.after(latency)


class LineClock:
    """A stdout stand-in that keeps each printed line with the time it was
    printed, and samples the host clock there.  ``verify`` prints a line as
    each suite ends, so the suites get samples between them; the time the
    command resumes is kept too, so that the next suite is timed from it."""

    def __init__(self, clock):
        self.clock = clock
        self.lines = []  # (printed at, resumed at, text)
        self._buf = ""
        self._resumed = time.perf_counter()

    def write(self, text):
        self._buf += text
        while "\n" in self._buf:
            line, self._buf = self._buf.split("\n", 1)
            now = time.perf_counter()
            self.clock.after(now - self._resumed)
            self._resumed = time.perf_counter()
            self.lines.append((now, self._resumed, line))
        return len(text)

    def flush(self):
        pass


# -- workloads ---------------------------------------------------------------
# Each returns a function that runs one round against a Recorder.  Program
# functions are looked up through their modules at call time, so that the
# traced rounds see the tracer's wrappers.


def dist_round(spec, out):
    M = spec["grid"]
    docs = [shapedoc.parse_shapedoc(json.dumps(b)) for b in spec["bodies"]]

    def realize(i):
        doc = docs[i]
        if isinstance(doc, supportfn.EvenFn):
            return supportfn.from_samples(doc.samples, M)  # fresh: no cached spectrum
        return shapedoc.to_even_fn(doc, M)

    def body(indices):
        h = realize(indices[0])
        for i in indices[1:]:
            h = supportfn.combine(1.0, h, 1.0, realize(i))
        return h

    def query(a, b):
        pa, pb = lorentz.normalize(body(a)), lorentz.normalize(body(b))
        d = lorentz.hyper_dist(pa, pb)
        d_rev = lorentz.hyper_dist(pb, pa)
        pi_a, pi_b = lorentz.pi0(pa.fn), lorentz.pi0(pb.fn)
        mid = lorentz.normalize(supportfn.combine(0.5, pa.fn, 0.5, pb.fn))
        # One route per comparison, as the library's own callers choose it:
        # closed form only when the midpoint kept an exact tag.
        route = "auto" if mid.fn.shape_tag is not None else "spectral"
        d_route = d if route == "auto" else lorentz.hyper_dist(pa, pb, method=route)
        d_am = lorentz.hyper_dist(pa, mid, method=route)
        d_mb = lorentz.hyper_dist(mid, pb, method=route)
        return {"d": d, "d_rev": d_rev, "pi_a": pi_a, "pi_b": pi_b, "d_route": d_route, "d_am": d_am, "d_mb": d_mb}

    def one_round(rec):
        for q in spec["queries"]:
            rec.run(q["key"], lambda q=q: query(q["a"], q["b"]))

    return one_round


def _svg_path(path):
    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    return {
        "d": root.find(ns + "path").get("d"),
        "scaled": root.find(ns + "text") is not None,
    }


def _cli(rec, key, argv, where, collect):
    """One CLI call, in process, writing into a fresh ``where``."""
    shutil.rmtree(where, ignore_errors=True)
    rec.run(key, lambda: cli.main(argv), lambda code: collect(code) if code == 0 else {"exit": code})


def geodesic_round(spec, out):
    steps, grid = spec["steps"], spec["grid"]

    def one_round(rec):
        for p in spec["pairs"]:
            where = out / p["key"]
            argv = ["geodesic", p["a_path"], p["b_path"], "--steps", str(steps),
                    "--grid", str(grid), "--out", str(where)]
            _cli(rec, p["key"], argv, where, lambda code, where=where: {
                "exit": code,
                "csv": (where / "geodesic.csv").read_text(),
                "frames": [_svg_path(where / ("frame_%03d.svg" % k)) for k in range(steps + 1)],
            })

    return one_round


def kernels_round(spec, out):
    hd = spec["hdim"]

    def one_round(rec):
        where = out / "kernels"
        for t in spec["ts"]:
            argv = ["kernels", "--t-min", repr(t), "--t-max", repr(t), "--steps", "1", "--out", str(where)]
            _cli(rec, "kernels-t%g" % t, argv, where,
                 lambda code: {"exit": code, "csv": (where / "kernels.csv").read_text()})
        for t in spec["ts"]:
            s = 2.0 * t  # kernels_compare(t) compares along the orbit of axial(2t)
            rec.run("iota-t%g" % t, lambda s=s: {"s": s, "d": mobius.iota_dist_quadrature(mobius.Mobius.axial(s))})
        where = out / "hdim"
        argv = ["hdim", "--j-min", str(hd["j_min"]), "--j-max", str(hd["j_max"]), "--empirical",
                "--samples", str(hd["samples"]), "--out", str(where)]
        mark = len(sys.stdout.lines)
        _cli(rec, "hdim", argv, where, lambda code: {
            "exit": code,
            "csv": (where / "hdim.csv").read_text(),
            "stdout": [line for _, _, line in sys.stdout.lines[mark:]],
        })

    return one_round


def suites_round(spec, out):
    """One ``verify --suite all`` call; each suite is one operation, timed
    from the line the command prints when that suite ends."""

    def one_round(rec):
        names = sorted(cli.SUITES)
        where = out / "reports"
        shutil.rmtree(where, ignore_errors=True)
        argv = ["verify", "--suite", "all", "--seed", str(spec["seed"]), "--grid", str(spec["grid"]),
                "--out", str(where)]
        mark = len(sys.stdout.lines)
        rec.begin()
        start = time.perf_counter()
        try:
            code, error = cli.main(argv), None
        except Exception as exc:  # a failing operation is counted, never fatal
            code, error = None, "%s: %s" % (type(exc).__name__, exc)
        for printed, resumed, line in sys.stdout.lines[mark:]:
            name = line.split()[0] if line.strip() else ""
            if name in names:
                report = (where / ("%s.json" % name)).read_text()
                rec.record("suite-" + name, printed, printed - start, {"exit": code, "report": report})
                names.remove(name)
                start = resumed
        for name in names:  # suites that never reported
            rec.record("suite-" + name, start, 0.0, {"error": error or "no report line", "exit": code})

    return one_round


WORKLOADS = {"dist": dist_round, "geodesic": geodesic_round, "kernels": kernels_round, "suites": suites_round}


def peak_rss_mb():
    """High-water RSS of this process image.  Not ru_maxrss, which keeps the
    parent's high-water mark across fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def timed_rounds(one_round, rec, seconds, tracer=None):
    """Whole rounds until ``seconds`` have passed.  With a tracer, rounds
    alternate untraced / traced; returns (untraced times, traced times)."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        use = tracer is not None and len(traced) < len(plain)
        if use:
            tracer.install()
            rec.tracer = tracer
        t0 = time.perf_counter()
        try:
            one_round(rec)
        finally:
            if use:
                tracer.uninstall()
                rec.tracer = None
        (traced if use else plain).append(time.perf_counter() - t0)
        if time.perf_counter() - start >= seconds and (tracer is None or traced):
            return plain, traced


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()

    spec = json.loads(args.inputs.read_text())
    out = args.result.parent / "out"
    out.mkdir(parents=True, exist_ok=True)
    one_round = WORKLOADS[spec["workload"]](spec, out)
    rec = Recorder()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    real_stdout, sys.stdout = sys.stdout, LineClock(rec.clock)
    try:
        plain, traced = timed_rounds(one_round, rec, args.seconds, tracer)
    finally:
        sys.stdout = real_stdout

    result = {
        "workload": spec["workload"],
        "rounds": plain,
        "traced_rounds": traced,
        "latencies": rec.plain,
        "traced_latencies": rec.traced,
        "host_samples": rec.clock.samples,
        "outcomes": rec.outcomes,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        import sweep

        result["layers"] = {name: list(v) for name, v in tracer.totals().items()}
        result["counts"] = dict(tracer.counts)
        trace_path = args.result.parent / "trace.json"
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path)
        result["scale_ratios"] = sweep.scale_ratios(out / "sweep")
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
