"""Command-line interface.

Exit codes: 0 success, 1 a verification bound failed, 2 usage error
(including a file that cannot be read, written or parsed), 3 an internal
invariant failed (a bug).
Output directory defaults to NSCURVES_OUT (falling back to the working
directory); every report echoes the run configuration that produced it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from . import bicorn as B
from . import curve as C
from . import pairconfig as PC
from . import verify as V
from .errors import InternalInvariantError, NSCurvesError
from .surface import parse_surface_spec, surface_to_json_str, validate


def _out_path(args, name):
    base = args.out_dir or os.environ.get("NSCURVES_OUT", ".")
    os.makedirs(base, exist_ok=True)
    return os.path.join(base, name)


def _load_config_file(path):
    params = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            k, v = line.split("=", 1)
            try:
                params[k.strip()] = int(v.strip())
            except ValueError:
                params[k.strip()] = v.strip()
    return params


def _read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as err:   # not JSON, or not text
            raise NSCurvesError("%s is not JSON: %s" % (path, err)) from None


def _curve(args, literal):
    return C.parse_curve(literal, args.surface)


def cmd_surface(args):
    surf = parse_surface_spec(args.surface)
    problems = validate(surf)
    if args.json or args.export:
        text = surface_to_json_str(surf)
        if args.export:
            with open(args.export, "w") as fh:
                fh.write(text)
        else:
            print(text)
    else:
        print("%s: %d triangles, %d edges, %d vertices, chi %d, %d boundary"
              % (surf.spec_name, surf.ntri, len(surf.edges), surf.nvertices,
                 surf.euler_characteristic(), len(surf.boundary_cycles)))
        print("valid" if not problems else "; ".join(problems))
    return 0 if not problems else 1


def cmd_curve(args):
    c = _curve(args, args.curve)
    if args.json:
        print(json.dumps(c.to_json(), sort_keys=True))
    else:
        print("weights:", list(c.weights))
        print("class:", c.cls)
        print("separating:", c.is_separating())
        print("peripheral:", c.peripheral)
        print("complexity:", c.complexity)
    return 0


def cmd_intersect(args):
    a, b = _curve(args, args.c1), _curve(args, args.c2)
    geo = PC.intersection_number(a, b)
    alg = PC.algebraic_intersection(a, b)
    if args.json or args.export_config:
        cfg = PC.draw_pair(a, b)
        doc = cfg.to_json()
        doc["geometric"] = geo
        doc["algebraic"] = alg
        if args.export_config:
            with open(args.export_config, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
        else:
            print(json.dumps(doc, sort_keys=True))
    else:
        print(geo)
        print("algebraic:", alg)
    return 0


def cmd_cut(args):
    c = _curve(args, args.curve)
    print(PC.cut_components(c))
    return 0


def cmd_bicorns(args):
    a, b = _curve(args, args.a), _curve(args, args.b)
    g = B.bicorn_graph(a, b)
    if args.json:
        print(json.dumps(g.to_json(), sort_keys=True))
    else:
        print("vertices: %d  edges: %d  connected: %s  diameter: %s"
              % (len(g.vertices), len(g.edges), g.connected, g.diameter()))
        for v in g.vertices:
            print("  ", v.literal(), v.cls)
    return 0


def cmd_path(args):
    a, b = _curve(args, args.a), _curve(args, args.b)
    path = B.distance_path(a, b, args.flavor)
    print("length %d (bound %d)"
          % (len(path) - 1, 2 * PC.intersection_number(a, b) + 1))
    for c in path:
        print("  ", c.literal(), c.cls)
    return 0


def cmd_chain(args):
    a, b = _curve(args, args.a), _curve(args, args.b)
    stats = []
    chain = B.connect_in_bicorn_graph(a, b, collect_stats=stats)
    print("chain length %d" % (len(chain) - 1))
    for bc in chain:
        print("  ", bc.kind, bc.derived.literal(), bc.derived.cls)
    if stats:
        print("branches:", [s.get("branch") for s in stats])
    return 0


def cmd_project(args):
    a, b = _curve(args, args.a), _curve(args, args.b)
    d = _curve(args, args.d)
    cfg = B.triple_config(a, b, d)
    target = _curve(args, args.c)
    found = None
    for bc in B.enumerate_bicorns(cfg):
        if bc.derived == target:
            found = bc
            break
    if found is None:
        print("the given curve is not a bicorn of this pair", file=sys.stderr)
        return 2
    w = B.project_to_sides(found, d, cfg)
    print(json.dumps(w.to_json(), sort_keys=True))
    return 0


def cmd_verify(args):
    params = {}
    if args.config:
        params.update(_load_config_file(args.config))
    if args.max_i is not None:
        params["max_i"] = args.max_i
    if args.complexity is not None:
        params["complexity_bound"] = args.complexity
    if args.replay:
        outcomes = V.replay_instances(_read_json(args.replay))
        print(json.dumps(outcomes, indent=2, sort_keys=True))
        return 1 if any(o["reproduced"] for o in outcomes) else 0
    rep = V.run_verifier(args.claim, args.surface, args.samples, args.seed,
                         **params)
    doc = rep.to_json()
    if args.config:
        doc["config_file"] = params
    out = _out_path(args, "report_%s_%s_s%d.json"
                    % (args.claim, rep.surface, args.seed))
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    csv_text = rep.to_csv()
    if csv_text:
        with open(out.replace(".json", ".csv"), "w") as fh:
            fh.write(csv_text)
    print("%s on %s: %d passed, %d failed; stats %s"
          % (args.claim, rep.surface, rep.passes, rep.failures,
             json.dumps(doc["stats"], sort_keys=True)))
    if rep.branch_counts:
        print("branches:", json.dumps(rep.branch_counts, sort_keys=True))
    print("report:", out)
    if rep.failures:
        bundle = _out_path(args, "failing_%s_%s_s%d.json"
                           % (args.claim, rep.surface, args.seed))
        with open(bundle, "w") as fh:
            json.dump({"claim": args.claim, "params": params,
                       "version": __version__,
                       "failing_instances": rep.failing_instances},
                      fh, indent=2, sort_keys=True)
        print("failing instances:", bundle, file=sys.stderr)
        return 1
    return 0


def cmd_ball(args):
    center = _curve(args, args.center)
    ball = V.build_ball(args.surface, center, args.radius, args.complexity,
                        flavor=args.flavor)
    if args.export:
        with open(args.export, "w") as fh:
            json.dump(ball.to_json(), fh, indent=2, sort_keys=True)
    if not args.json:
        print("ball: %d vertices, %d edges (distances are upper bounds)"
              % (len(ball.vertices), len(ball.edges)))
    elif not args.export:
        print(json.dumps(ball.to_json(), sort_keys=True))
    return 0


def cmd_delta(args):
    center = _curve(args, args.center)
    ball = V.build_ball(args.surface, center, args.radius, args.complexity,
                        flavor=args.flavor)
    mode = "exact" if args.exact else "sampled"
    delta = V.four_point_delta(ball, mode=mode, seed=args.seed,
                               samples=args.samples)
    label = "exact" if args.exact else "sampled lower bound"
    print("delta = %s (%s, over the explored subgraph of %d vertices;"
          " its distances overestimate the full graph)"
          % (delta, label, len(ball.vertices)))
    return 0


# the report fields that `report` merges, and their types
_REPORT_FIELDS = {"claim": str, "passes": int, "failures": int, "stats": dict}


def cmd_report(args):
    docs = []
    for path in args.files:
        doc = _read_json(path)
        if not isinstance(doc, dict):
            raise NSCurvesError("%s is not a report" % path)
        bad = [k for k, t in _REPORT_FIELDS.items()
               if k in doc and not isinstance(doc[k], t)]
        if bad:
            raise NSCurvesError("%s is not a report: %s of the wrong type"
                                % (path, ", ".join(bad)))
        docs.append(doc)
    if args.diff:
        if len(docs) != 2:
            print("--diff needs exactly two reports", file=sys.stderr)
            return 2
        same = V.reports_equal(docs[0], docs[1])
        print("identical (timestamps excluded)" if same else "different")
        return 0 if same else 1
    merged = {
        "schema": V.REPORT_SCHEMA,
        "merged_from": len(docs),
        "claims": sorted({d.get("claim", "?") for d in docs}),
        "total_passes": sum(d.get("passes", 0) for d in docs),
        "total_failures": sum(d.get("failures", 0) for d in docs),
        "stats": {},
    }
    for d in docs:
        for k, v in d.get("stats", {}).items():
            try:
                v = float(v)
            except (TypeError, ValueError):
                continue
            if k not in merged["stats"] or merged["stats"][k] < v:
                merged["stats"][k] = v
    print(json.dumps(merged, indent=2, sort_keys=True))
    return 1 if merged["total_failures"] else 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="nscurves",
        description="curves on triangulated surfaces: intersections, "
                    "bicorn constructions, and hyperbolicity measurements")
    ap.add_argument("--surface", default="g1b1",
                    help="surface spec like g2b0 (default g1b1)")
    ap.add_argument("--out-dir", default=None,
                    help="output directory (default $NSCURVES_OUT or .)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("surface", help="build, validate and export a surface")
    p.add_argument("--json", action="store_true")
    p.add_argument("--export", metavar="FILE")
    p.set_defaults(fn=cmd_surface)

    p = sub.add_parser("curve", help="parse and classify a curve literal")
    p.add_argument("curve")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_curve)

    p = sub.add_parser("intersect", help="geometric and algebraic counts")
    p.add_argument("c1")
    p.add_argument("c2")
    p.add_argument("--json", action="store_true")
    p.add_argument("--export-config", metavar="FILE",
                   help="write the minimal-position configuration as JSON")
    p.set_defaults(fn=cmd_intersect)

    p = sub.add_parser("cut", help="components after cutting along a curve")
    p.add_argument("curve")
    p.set_defaults(fn=cmd_cut)

    p = sub.add_parser("bicorns", help="the bicorn graph of a pair")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_bicorns)

    p = sub.add_parser("path", help="surgery path between two curves")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--flavor", choices=("ns", "nsprime"), default="nsprime")
    p.set_defaults(fn=cmd_path)

    p = sub.add_parser("chain", help="monotone bicorn chain between two curves")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_chain)

    p = sub.add_parser("project",
                       help="witness placing a bicorn near a third curve's "
                            "bicorn graphs")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c", help="the bicorn of (a,b) to project")
    p.add_argument("d", help="the third curve")
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("verify", help="randomized verification runs")
    p.add_argument("claim", choices=sorted(V.VERIFIERS))
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-i", type=int, default=None)
    p.add_argument("--complexity", type=int, default=None)
    p.add_argument("--config", metavar="FILE",
                   help="key=value file merged into the parameters")
    p.add_argument("--replay", metavar="FILE",
                   help="re-run a failing-instance bundle")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("ball", help="explored ball of the curve graph")
    p.add_argument("--center", required=True)
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--complexity", type=int, default=60)
    p.add_argument("--flavor", choices=("ns", "nsprime"), default="ns")
    p.add_argument("--json", action="store_true")
    p.add_argument("--export", metavar="FILE")
    p.set_defaults(fn=cmd_ball)

    p = sub.add_parser("delta", help="four-point hyperbolicity defect")
    p.add_argument("--center", required=True)
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--complexity", type=int, default=60)
    p.add_argument("--flavor", choices=("ns", "nsprime"), default="ns")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_delta)

    p = sub.add_parser("report", help="merge or compare report files")
    p.add_argument("files", nargs="+")
    p.add_argument("--diff", action="store_true")
    p.set_defaults(fn=cmd_report)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except InternalInvariantError as err:
        print("internal error: %s" % err, file=sys.stderr)
        return 3
    except (NSCurvesError, OSError, UnicodeDecodeError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
