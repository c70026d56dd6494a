"""Span and count recorder for the traced benchmark run.

`install()` wraps the public functions and methods of the nscurves layers
from outside the package: every module attribute bound to a wrapped
function is replaced, so `from ... import` bindings (pairconfig's
`overlay` and `face_data`, curve's `homology_basis`) and the verifier
table in `verify.VERIFIERS` are traced too.  Spans (name, start, end,
parent span, unit id) and counts stay in memory until the job writes them
out; `self_times` and `layer_metrics` derive the per-layer numbers.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import Counter

SUCCESSOR_BRANCHES = ("initial", "take_b", "take_b_clean",
                      "same_sign_forward", "same_sign_backward",
                      "take_b_pinched", "double_extension_direct",
                      "both_separating_span")
PROJECTION_BRANCHES = ("trivial", "near", "reroute")


class Recorder:
    """Spans and counts of one traced job, kept in memory."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, unit id]
        self.stack = []
        self.counts = Counter()
        self.unit = -1
        self.on = True
        self.derived = []        # derived curves of each enumerate call
        # drawing -> the Geometry its last geometry() call returned
        self.last_geometry = weakref.WeakKeyDictionary()

    def wrap(self, name, fn, span=True, after=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.on:
                return fn(*args, **kwargs)
            rec.counts[name + ".calls"] += 1
            if not span:
                out = fn(*args, **kwargs)
            else:
                idx = len(rec.spans)
                entry = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else -1,
                         rec.unit]
                rec.spans.append(entry)
                rec.stack.append(idx)
                try:
                    entry[1] = time.perf_counter()
                    out = fn(*args, **kwargs)
                finally:
                    entry[2] = time.perf_counter()
                    rec.stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def dump(self):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "spans": [[index[s[0]], s[1], s[2], s[3], s[4]]
                          for s in self.spans],
                "counts": dict(self.counts)}


def install(rec):
    """Wrap every traced entry point of the loaded nscurves package."""
    from nscurves import (arrangement, bicorn, curve, drawing, homology,
                          pairconfig, surface, verify, words)

    def geometry_after(args, kwargs, out):
        if rec.last_geometry.get(args[0]) is not out:
            rec.counts["drawing.geometry_rebuilds"] += 1
        rec.last_geometry[args[0]] = out

    def bigons_after(args, kwargs, out):
        rec.counts["drawing.bigon_moves"] += out

    def apply_after(args, kwargs, out):
        rec.counts["drawing.bigon_moves"] += 1

    def intersection_wrap(fn):
        inner = rec.wrap("pairconfig.intersection_number", fn)

        built = "pairconfig.PairConfiguration.__init__.calls"

        @functools.wraps(fn)
        def wrapper(a, b):
            before = rec.counts[built]
            out = inner(a, b)
            if rec.on:
                if rec.counts[built] == before:
                    rec.counts["pairconfig.intersection_hits"] += 1
                if rec.parent_name() == "bicorn.bicorn_graph":
                    rec.counts["bicorn.graph_pair_tests"] += 1
            return out
        return wrapper

    def enumerate_after(args, kwargs, out):
        rec.counts["bicorn.enumerated"] += len(out)
        rec.derived.append([bc.derived for bc in out])

    def graph_after(args, kwargs, out):
        rec.counts["bicorn.graph_vertices"] += len(out.vertices)

    def successor_after(args, kwargs, out):
        record = kwargs.get("record", args[2] if len(args) > 2 else None)
        if record is not None and "branch" in record:
            rec.counts["bicorn.branch." + record["branch"]] += 1

    def projection_after(args, kwargs, out):
        rec.counts["bicorn.projection_branch." + out.branch] += 1

    def sample_pair_after(args, kwargs, out):
        rec.counts["verify.pairs_accepted"] += 1

    def sample_curve_wrap(fn):
        inner = rec.wrap("verify.sample_curve", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.on and rec.parent_name() == "verify.sample_pair":
                rec.counts["verify.pair_candidates"] += 1
            return inner(*args, **kwargs)
        return wrapper

    functions = [
        (surface, "build_surface", None, None),
        (homology, "homology_basis", None, None),
        (words, "canonical_unoriented", None, None),
        (words, "is_trivial", None, None),
        (curve, "dehn_twist", None, None),
        (arrangement, "face_data", None, None),
        (arrangement, "cut_component_count", None, None),
        (pairconfig, "intersection_number", intersection_wrap, None),
        (bicorn, "enumerate_bicorns", None, enumerate_after),
        (bicorn, "bicorn_graph", None, graph_after),
        (bicorn, "ns_adjacent", None, None),
        (bicorn, "bicorn_successor", None, successor_after),
        (bicorn, "connect_in_bicorn_graph", None, None),
        (bicorn, "triple_config", None, None),
        (bicorn, "project_to_sides", None, projection_after),
        (bicorn, "distance_path", None, None),
        (verify, "sample_pair", None, sample_pair_after),
        (verify, "sample_curve", sample_curve_wrap, None),
        (verify, "random_curve_any", None, None),
        (verify, "build_ball", None, None),
        (verify, "four_point_delta", None, None),
    ]
    replace = {}   # id of an original -> its wrapper
    for mod, attr, custom, after in functions:
        fn = getattr(mod, attr)
        name = "%s.%s" % (mod.__name__.split(".")[-1], attr)
        replace[id(fn)] = custom(fn) if custom else rec.wrap(name, fn,
                                                             after=after)
    for fn in verify.VERIFIERS.values():
        replace[id(fn)] = rec.wrap("verify.trial", fn)
    # rebind at every site that holds one of the originals
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "nscurves"
                                     or n.startswith("nscurves."))]
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if id(val) in replace:
                setattr(mod, attr, replace[id(val)])
    for claim, fn in list(verify.VERIFIERS.items()):
        verify.VERIFIERS[claim] = replace[id(fn)]

    methods = [
        (surface.Surface, "__init__", False, None),
        (curve.Curve, "is_separating", False, None),
        (drawing.Drawing, "geometry", True, geometry_after),
        (drawing.Drawing, "twist_once", False, None),
        (drawing.Drawing, "find_bigon_moves", True, None),
        (drawing.Drawing, "remove_bigons_between", True, bigons_after),
        (drawing.Drawing, "apply_bigon_move", True, apply_after),
        (drawing.Drawing, "reduce_turnbacks", True, None),
        (pairconfig.PairConfiguration, "__init__", True, None),
        (pairconfig.PairConfiguration, "add_third", True, None),
    ]
    for cls, attr, span, after in methods:
        name = "%s.%s.%s" % (cls.__module__.split(".")[-1], cls.__name__,
                             attr)
        setattr(cls, attr, rec.wrap(name, getattr(cls, attr), span, after))


def self_times(dump):
    """Total duration and self time (duration minus child spans) per name."""
    names, spans = dump["names"], dump["spans"]
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    total, own = Counter(), Counter()
    for i, s in enumerate(spans):
        name = names[s[0]]
        total[name] += s[2] - s[1]
        own[name] += s[2] - s[1] - child[i]
    return total, own


def layer_metrics(counts, total, own, distinct_ns, wall_traced,
                  wall_untraced):
    """Per-layer metrics: name -> (value, unit, numerator, denominator).

    Ratios keep their base counts; a ratio with a zero base reads 0.
    """
    c = counts
    out = {}

    def count(name, value):
        out[name] = (value, "count", None, None)

    def secs(name, *span_names, inclusive=False):
        src = total if inclusive else own
        out[name] = (sum(src[n] for n in span_names), "s", None, None)

    def ratio(name, num, den):
        out[name] = (num / den if den else 0.0, "ratio", num, den)

    count("surface.build_calls", c["surface.Surface.__init__.calls"])
    secs("surface.build_s", "surface.build_surface")
    secs("homology.basis_s", "homology.homology_basis")
    count("homology.separating_tests", c["curve.Curve.is_separating.calls"])
    count("words.canonical_calls", c["words.canonical_unoriented.calls"]
          + c["words.is_trivial.calls"])
    secs("words.canonical_self_s", "words.canonical_unoriented",
         "words.is_trivial")
    count("curve.dehn_twist_calls", c["curve.dehn_twist.calls"])
    count("curve.twist_laps", c["drawing.Drawing.twist_once.calls"])
    secs("curve.dehn_twist_self_s", "curve.dehn_twist")
    secs("curve.dehn_twist_s", "curve.dehn_twist", inclusive=True)
    geo_calls = c["drawing.Drawing.geometry.calls"]
    rebuilds = c["drawing.geometry_rebuilds"]
    count("drawing.geometry_calls", geo_calls)
    count("drawing.geometry_rebuilds", rebuilds)
    ratio("drawing.geometry_reuse_ratio", geo_calls - rebuilds, geo_calls)
    secs("drawing.geometry_self_s", "drawing.Drawing.geometry")
    moves = c["drawing.bigon_moves"]
    count("drawing.bigon_searches",
          c["drawing.Drawing.find_bigon_moves.calls"])
    count("drawing.bigon_moves", moves)
    ratio("drawing.rebuilds_per_bigon_move", rebuilds, moves)
    secs("drawing.bigon_self_s", "drawing.Drawing.find_bigon_moves",
         "drawing.Drawing.remove_bigons_between",
         "drawing.Drawing.apply_bigon_move")
    secs("drawing.turnback_self_s", "drawing.Drawing.reduce_turnbacks")
    count("arrangement.calls", c["arrangement.face_data.calls"]
          + c["arrangement.cut_component_count.calls"])
    secs("arrangement.self_s", "arrangement.face_data",
         "arrangement.cut_component_count")
    calls = c["pairconfig.intersection_number.calls"]
    count("pairconfig.intersection_calls", calls)
    ratio("pairconfig.intersection_hit_ratio",
          c["pairconfig.intersection_hits"], calls)
    secs("pairconfig.intersection_s", "pairconfig.intersection_number",
         inclusive=True)
    count("pairconfig.configs_built",
          c["pairconfig.PairConfiguration.__init__.calls"])
    secs("pairconfig.config_self_s", "pairconfig.PairConfiguration.__init__")
    secs("pairconfig.third_curve_self_s",
         "pairconfig.PairConfiguration.add_third")
    count("bicorn.enumerated", c["bicorn.enumerated"])
    ratio("bicorn.distinct_ratio", distinct_ns, c["bicorn.enumerated"])
    count("bicorn.graph_vertices", c["bicorn.graph_vertices"])
    secs("bicorn.graph_self_s", "bicorn.bicorn_graph")
    count("bicorn.adjacency_tests", c["bicorn.ns_adjacent.calls"])
    count("bicorn.graph_pair_tests", c["bicorn.graph_pair_tests"])
    count("bicorn.successor_calls", c["bicorn.bicorn_successor.calls"])
    secs("bicorn.successor_self_s", "bicorn.bicorn_successor")
    for b in SUCCESSOR_BRANCHES:
        count("bicorn.branch." + b, c["bicorn.branch." + b])
    count("bicorn.projection_calls", c["bicorn.project_to_sides.calls"])
    secs("bicorn.projection_self_s", "bicorn.project_to_sides")
    for b in PROJECTION_BRANCHES:
        count("bicorn.projection_branch." + b,
              c["bicorn.projection_branch." + b])
    secs("bicorn.path_self_s", "bicorn.distance_path")
    ratio("verify.sample_accept_ratio", c["verify.pairs_accepted"],
          c["verify.pair_candidates"])
    secs("verify.sample_self_s", "verify.sample_pair", "verify.sample_curve",
         "verify.random_curve_any")
    secs("verify.trial_self_s", "verify.trial")
    secs("verify.ball_self_s", "verify.build_ball")
    secs("verify.delta_s", "verify.four_point_delta", inclusive=True)
    out["trace.wall_s"] = (wall_traced, "s", None, None)
    out["trace.overhead_s"] = (wall_traced - wall_untraced, "s", None, None)
    return out
