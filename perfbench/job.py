"""One measured benchmark job, in a fresh interpreter.

    python3 perfbench/job.py SPEC.json OUT.json

SPEC names the workload, the job's inputs, the source tree, whether to
trace, whether to stop after set-up, and the parent's clock reading when
it spawned this process, so that `setup_s` runs from interpreter start to
the first timed unit.  Each unit is timed on its own and checked right
after, outside its timing: against its oracle values and the workload's
bounds, and its output summary against the one recorded with the
population ("expect").  Every CALIBRATE_EVERY_S, inside units too, an
interval timer times a fixed calibration loop (`Speedometer`); its time is
left out of the unit's, and each unit records the mean of the readings
from the last before it to the first after it (`ref_s`): the host's speed
while the unit ran.  OUT receives the timings, the check outcomes with
the summaries and, when traced, the recorded spans and counts.
"""

from __future__ import annotations

import hashlib
import json
import resource
import signal
import sys
import time


class Suite:
    """Verifier trials, one claim at one surface and trial index a unit."""

    def __init__(self, data, job):
        from nscurves import curve as C, homology as H, verify as V
        from nscurves.surface import parse_surface_spec
        self.V = V
        for spec in sorted({u["surface"] for u in job["units"]}):
            surface = parse_surface_spec(spec)
            H.homology_basis(surface)
            C.twist_generators(surface)
        self.seed, self.samples = data["verifier_seed"], data["samples"]
        self.units = [(u, (u["claim"], u["surface"], u["k"]))
                      for u in job["units"]]

    def run(self, unit):
        claim, spec, k = unit
        return self.V.VERIFIERS[claim](spec, self.samples, self.seed,
                                       trial_indices=[k])

    def check(self, given, unit, rep):
        row = rep.trial_rows[0]
        if rep.failures:
            return 1, row, "claim failed: %s" % rep.failing_instances
        return 1, row, None


class Ball:
    """One explored ball of the curve graph and its exact four-point delta."""

    def __init__(self, data, job):
        from nscurves import curve as C, homology as H, verify as V
        from nscurves.surface import parse_surface_spec
        self.C, self.V = C, V
        self.data = data
        self.surface = parse_surface_spec(data["surface"])
        H.homology_basis(self.surface)
        C.twist_generators(self.surface)
        self.units = [(u, C.parse_curve(u["center"], self.surface))
                      for u in job["units"]]

    def run(self, center):
        d = self.data
        ball = self.V.build_ball(self.surface, center, d["radius"],
                                 d["bound"], "ns",
                                 twist_powers=d["twist_powers"])
        return ball, self.V.four_point_delta(ball, "exact")

    def check(self, given, center, out):
        ball, delta = out
        expected = {self.C.parse_curve(lit, self.surface)
                    for lit in given["neighbours"]}
        c = ball.vertices.index(center)
        got = set()
        for e in ball.edges:
            i, j = tuple(e)
            if c in (i, j):
                got.add(ball.vertices[j if i == c else i])
        # the explored ball need not propose every neighbour (build_ball
        # says so); those it holds must be exactly the center's neighbours,
        # and the recorded summary pins which vertices it explores
        present = expected & set(ball.vertices)
        summary = {"vertices": len(ball.vertices), "edges": len(ball.edges),
                   "delta": str(delta),
                   "missing_neighbours": len(expected) - len(present),
                   "vertex_digest": digest(sorted(
                       v.literal() for v in ball.vertices))}
        if got != present:
            return len(ball.vertices), summary, \
                "center has %d neighbours in the ball, expected %d" % (
                    len(got), len(present))
        brute = self.V.four_point_delta_bruteforce(ball)
        if delta != brute:
            return len(ball.vertices), summary, \
                "delta %s != brute force %s" % (delta, brute)
        return len(ball.vertices), summary, None


class Bicorn:
    """Chain, bicorn graph, projections and surgery path of (a, b, d)."""

    def __init__(self, data, job):
        from nscurves import bicorn as B, curve as C, homology as H
        from nscurves import pairconfig as PC
        from nscurves.surface import parse_surface_spec
        self.B, self.PC = B, PC
        self.units = []
        for t in job["units"]:
            surface = parse_surface_spec(t["surface"])
            H.homology_basis(surface)
            C.twist_generators(surface)
            self.units.append((t, [C.parse_curve(t[k], surface)
                                   for k in ("a", "b", "d")]))

    def run(self, unit):
        B = self.B
        a, b, d = unit
        stats = []
        chain = B.connect_in_bicorn_graph(a, b, collect_stats=stats)
        graph = B.bicorn_graph(a, b)
        cfg = B.triple_config(a, b, d)
        seen, witnesses = set(), []
        for bc in B.enumerate_bicorns(cfg):
            if bc.derived.is_separating() or bc.derived in seen:
                continue
            seen.add(bc.derived)
            witnesses.append(B.project_to_sides(bc, d, cfg))
        path = B.distance_path(a, b, "nsprime")
        return chain, graph, witnesses, path, cfg.count()

    def check(self, given, unit, out):
        chain, graph, witnesses, path, i_ab = out
        a, b, _ = unit
        inter = self.PC.intersection_number
        worst_d = max((w.certified_distance for w in witnesses), default=0)
        steps = [inter(u.derived, v.derived) for u, v in zip(chain, chain[1:])]
        summary = {"i_ab": i_ab, "chain": len(chain),
                   "graph_vertices": len(graph.vertices),
                   "witnesses": len(witnesses), "max_distance": worst_d,
                   "path": len(path)}
        problems = []
        if i_ab != given["i_ab"]:
            problems.append("i(a,b) = %d, expected %d" % (i_ab,
                                                          given["i_ab"]))
        if any(not v.b_gaps > u.b_gaps and v.kind != "degenerate_b"
               for u, v in zip(chain, chain[1:])):
            problems.append("chain b-arcs not monotone")
        if max(steps, default=0) > 2:
            problems.append("chain step meets %d times" % max(steps))
        if not graph.connected:
            problems.append("bicorn graph disconnected")
        for w in witnesses:
            if w.branch == "near" and w.bounds.get("i_c_target", 0) > 1:
                problems.append("near witness bound")
            if w.branch == "reroute" and (w.bounds.get("i_c_c0", 0) != 0 or
                                          w.bounds.get("i_c0_cprime", 0) > 3):
                problems.append("reroute witness bounds")
        if worst_d > 8:
            problems.append("certified distance %d > 8" % worst_d)
        if len(path) - 1 > 2 * i_ab + 1 or path[0] != a or path[-1] != b:
            problems.append("surgery path bounds")
        return 1, summary, "; ".join(problems) or None


class Bigpair:
    """One intersection number of a pair with i in the hundreds."""

    def __init__(self, data, job):
        from nscurves import curve as C, homology as H
        from nscurves import pairconfig as PC
        from nscurves.surface import parse_surface_spec
        self.PC = PC
        surface = parse_surface_spec(data["surface"])
        H.homology_basis(surface)
        self.units = [(u, (C.parse_curve(u["a"], surface),
                           C.parse_curve(u["b"], surface)))
                      for u in job["units"]]

    def run(self, pair):
        return self.PC.intersection_number(*pair)

    def check(self, given, pair, i):
        want = given["expected_i"]
        return i, {"i": i}, None if i == want else \
            "i = %d, determinant %d" % (i, want)


def digest(obj):
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


CALIBRATE_EVERY_S = 0.1


def _step(acc, key):
    acc[key] = acc.get(key, 0) + 1
    return key & 7


def calibrate(n=8000):
    """Time a fixed pure-Python loop, a reading of the host's speed now.

    The loop does what nscurves does most (calls, dict updates, list
    sorts) and takes about 3 ms on a 2-core x86 host.  Nothing in it
    depends on nscurves, and it allocates no objects that the garbage
    collector tracks, so that it does not bring the collections of the
    measured code forward.
    """
    t0 = time.perf_counter()
    acc, seq, x = {}, [], 0
    for i in range(n):
        key = (i * 7919) & 4095
        x += _step(acc, key)
        seq.append(key)
        if len(seq) > 64:
            seq.sort()
            del seq[:32]
    return time.perf_counter() - t0


class Speedometer:
    """Readings of `calibrate` every CALIBRATE_EVERY_S, inside units too.

    An interval timer interrupts the measured code and the handler times
    the loop; `spent` sums the handler's own time, which a unit's timing
    leaves out.
    """

    def __init__(self):
        self.readings, self.spent = [calibrate()], 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S,
                         CALIBRATE_EVERY_S)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.readings.append(calibrate())
        self.spent += time.perf_counter() - t0

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.readings.append(calibrate())

    def mean(self, first, last):
        """Mean of readings first..last, the last one included."""
        span = self.readings[first:last + 1]
        return sum(span) / len(span)


def peak_rss_mb():
    """Peak resident set of this process image.

    ru_maxrss would also count the pages of the parent process from before
    the exec, so a parent that generated the inputs would show through.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WORKLOADS = {"suite": Suite, "ball": Ball, "bicorn": Bicorn,
             "bigpair": Bigpair}


def main(spec_path, out_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import nscurves  # noqa: F401  (the import is part of set-up)
    rec = None
    if spec["trace"]:
        import tracing
        rec = tracing.Recorder()
        tracing.install(rec)
    work = WORKLOADS[spec["workload"]](spec["data"], spec["job"])
    setup_s = time.perf_counter() - spec["t_spawn"]
    units = []
    todo = [] if spec["setup_only"] else work.units
    # a traced job counts calls and times spans, which the timer would
    # interrupt; it reads no speed
    speed = None if rec is not None or not todo else Speedometer()
    spans = []
    for n, (given, unit) in enumerate(todo):
        if rec is not None:
            rec.unit, rec.on = n, True
        if speed is not None:
            first, spent = len(speed.readings) - 1, speed.spent
        t0 = time.perf_counter()
        try:
            out = work.run(unit)
            error = None
        except Exception as exc:   # a failed unit is counted, not fatal
            out, error = None, "%s: %s" % (type(exc).__name__, exc)
        elapsed = time.perf_counter() - t0
        if speed is not None:
            elapsed -= speed.spent - spent
            spans.append((first, len(speed.readings)))
        if rec is not None:
            rec.on = False
        size, summary = 1, None
        if error is None:
            try:
                size, summary, error = work.check(given, unit, out)
                summary = json.loads(json.dumps(summary))
            except Exception as exc:
                error = "check raised %s: %s" % (type(exc).__name__, exc)
        if error is None and "expect" in given and summary != given["expect"]:
            error = "output %s differs from the recorded %s" % (
                json.dumps(summary, sort_keys=True),
                json.dumps(given["expect"], sort_keys=True))
        units.append({"s": elapsed, "size": size, "error": error,
                      "out": summary})
    if speed is not None:
        speed.stop()
        for u, (first, last) in zip(units, spans):
            u["ref_s"] = speed.mean(first, last)
    result = {"setup_s": setup_s, "units": units,
              "wall_s": sum(u["s"] for u in units),
              "peak_rss_mb": peak_rss_mb()}
    if rec is not None:
        result["trace"] = rec.dump()
        result["distinct_ns"] = sum(
            len({c for c in derived if not c.is_separating()})
            for derived in rec.derived)
    with open(out_path, "w") as fh:
        json.dump(result, fh, default=str)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
