import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import nscurves
from nscurves.cli import main
from nscurves.curve import dehn_twist, parse_curve, twist_generators
from nscurves.errors import InternalInvariantError
from nscurves.verify import reports_equal


def run(args):
    return main(args)


def test_intersect_prints_count(capsys):
    assert run(["--surface", "g1b1", "intersect", "pq:1/0", "pq:1/2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "2"


def test_curve_info(capsys):
    assert run(["--surface", "g1b1", "curve", "pq:1/2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["surface"] == "g1b1"
    assert doc["class"] == [1, 2]


def test_cut_command(capsys):
    assert run(["--surface", "g1b2", "cut", "bd:1"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_malformed_curve_literals_are_usage_errors(capsys):
    for literal in ("bd:x", "nc:[1,x]", "pq:1/x", "pq:1/2/3", "bd:3",
                    "bd:-1", "nc:[1,2,,1,2,0,0,0,0,0,0,]"):
        assert run(["--surface", "g1b2", "curve", literal]) == 2, literal
        assert "error:" in capsys.readouterr().err
    # an empty twist token is an error; the empty twist word is the base
    assert run(["--surface", "g1b1", "curve", "tw:A..B@pq:1/0"]) == 2
    assert "error:" in capsys.readouterr().err
    assert run(["--surface", "g1b1", "curve", "tw:@pq:1/0"]) == 0


def test_path_and_chain(capsys):
    assert run(["--surface", "g1b1", "path", "pq:1/0", "pq:2/5"]) == 0
    assert run(["--surface", "g1b1", "chain", "pq:1/0", "pq:1/2"]) == 0


def test_bicorns_json(capsys):
    assert run(["--surface", "g1b1", "bicorns", "pq:1/0", "pq:1/2",
                "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["connected"]


def test_usage_error_exit_code(capsys):
    assert run(["--surface", "g1b1", "curve", "zz:nope"]) == 2
    assert run(["--surface", "g0b2", "surface"]) == 2


def test_unknown_verifier_parameter_is_a_usage_error(tmp_path, capsys):
    # exit 1 means a bound failed; a parameter the claim does not take is
    # a usage error, whether it comes from a flag or from a config file
    assert run(["--surface", "g1b1", "--out-dir", str(tmp_path), "verify",
                "separating", "--max-i", "6"]) == 2
    err = capsys.readouterr().err
    assert "separating" in err and "max_i" in err
    cfg = tmp_path / "params.cfg"
    cfg.write_text("complexity_bnd=90\n")
    assert run(["--surface", "g1b1", "--out-dir", str(tmp_path), "verify",
                "claim1", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "claim1" in err and "complexity_bnd" in err
    assert [p.name for p in tmp_path.iterdir()] == ["params.cfg"]


def test_unreadable_files_are_usage_errors(tmp_path, capsys):
    # exit 1 means a bound failed: a file that cannot be read, written or
    # parsed is a usage error, told in one line
    readme = Path(nscurves.__file__).parents[2] / "README.md"
    missing = str(tmp_path / "missing")
    for args in (["report", missing + ".json"],
                 ["report", str(readme)],
                 ["verify", "claim1", "--config", missing],
                 ["verify", "claim1", "--replay", missing],
                 ["intersect", "pq:1/0", "pq:0/1", "--export-config",
                  str(tmp_path / "no" / "x.json")]):
        assert run(["--surface", "g1b1", "--out-dir", str(tmp_path)]
                   + args) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, args
    assert list(tmp_path.iterdir()) == []


def test_reports_with_fields_of_the_wrong_type_are_usage_errors(tmp_path,
                                                                capsys):
    for k, doc in enumerate(({"stats": [1, 2]}, {"passes": "3"},
                             {"failures": None}, {"claim": ["x"]})):
        path = tmp_path / ("r%d.json" % k)
        path.write_text(json.dumps(doc))
        assert run(["report", str(path)]) == 2, doc
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, doc
        assert "wrong type" in err, doc
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"claim": "claim1", "passes": 3,
                                "failures": 0, "stats": {"x": 1}}))
    assert run(["report", str(good)]) == 0
    assert json.loads(capsys.readouterr().out)["total_passes"] == 3


def test_negative_counts_are_usage_errors(tmp_path, capsys):
    for args in (["ball", "--center", "pq:1/0", "--radius", "-1"],
                 ["delta", "--center", "pq:1/0", "--radius", "-1"],
                 ["delta", "--center", "pq:1/0", "--samples", "-1",
                  "--complexity", "20"],
                 ["verify", "claim1", "--samples", "-1"],
                 ["verify", "claim2", "--samples", "2", "--max-i", "-3"]):
        assert run(["--surface", "g1b1", "--out-dir", str(tmp_path)]
                   + args) == 2, args
        assert "must be a count" in capsys.readouterr().err, args
    assert list(tmp_path.iterdir()) == []


def test_a_bound_below_every_base_curve_fails_the_claim(tmp_path, capsys):
    assert run(["--surface", "g1b1", "--out-dir", str(tmp_path), "verify",
                "claim1", "--samples", "2", "--complexity", "0"]) == 1
    doc = json.loads((tmp_path / "report_claim1_g1b1_s0.json").read_text())
    assert doc["passes"] == 0 and doc["failures"] == 2


def test_internal_error_is_not_a_claim_failure(tmp_path, monkeypatch,
                                               capsys):
    from nscurves import bicorn
    from nscurves.errors import InternalInvariantError

    def broken(config):
        raise InternalInvariantError("planted")

    monkeypatch.setattr(bicorn, "enumerate_bicorns", broken)
    code = run(["--surface", "g1b1", "--out-dir", str(tmp_path),
                "verify", "claim1", "--samples", "1", "--seed", "4"])
    assert code == 3
    assert "planted" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_verify_writes_report(tmp_path, capsys):
    code = run(["--surface", "g1b1", "--out-dir", str(tmp_path),
                "verify", "claim1", "--samples", "3", "--seed", "4"])
    assert code == 0
    report = tmp_path / "report_claim1_g1b1_s4.json"
    assert report.exists()
    doc = json.loads(report.read_text())
    assert doc["passes"] == 3 and doc["failures"] == 0
    assert (tmp_path / "report_claim1_g1b1_s4.csv").exists()


def test_report_diff(tmp_path, capsys):
    for k in (1, 2):
        run(["--surface", "g1b1", "--out-dir", str(tmp_path / str(k)),
             "verify", "claim1", "--samples", "2", "--seed", "6"])
        capsys.readouterr()
    a = str(tmp_path / "1" / "report_claim1_g1b1_s6.json")
    b = str(tmp_path / "2" / "report_claim1_g1b1_s6.json")
    assert run(["report", "--diff", a, b]) == 0
    assert "identical" in capsys.readouterr().out


def test_delta_command(capsys):
    assert run(["--surface", "g1b1", "delta", "--center", "pq:1/0",
                "--radius", "1", "--complexity", "20", "--exact"]) == 0
    out = capsys.readouterr().out
    assert "delta =" in out and "explored subgraph" in out


def test_project_command(capsys):
    code = run(["--surface", "g1b1", "project",
                "pq:1/0", "pq:1/2", "pq:1/1", "pq:0/1"])
    if code == 0:
        doc = json.loads(capsys.readouterr().out)
        assert doc["certified_distance"] <= 8
    else:
        # the chosen curve happens not to be a bicorn of this pair
        assert code == 2


def test_ball_script_reports_a_center_off_the_surface():
    # the default center pq:1/0 is a torus slope: on g2b0 the script says
    # so in one line and exits 2, as `nscurves` does, with no traceback
    src = Path(nscurves.__file__).parent.parent
    script = src.parent / "scripts" / "measure_ball_delta.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--surface", "g2b0"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert proc.stderr.count("\n") == 1


def test_ball_script_rejects_a_negative_radius():
    src = Path(nscurves.__file__).parent.parent
    script = src.parent / "scripts" / "measure_ball_delta.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--radius", "-1", "--bounds", "12"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: radius must be a count")
    assert proc.stderr.count("\n") == 1


def test_ball_json_is_one_document(tmp_path, capsys):
    # with --json stdout is the ball alone; the summary line is printed
    # only without it
    args = ["--surface", "g1b1", "ball", "--center", "pq:1/0", "--radius",
            "1", "--complexity", "12"]
    assert run(args + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert run(args) == 0
    summary = capsys.readouterr().out
    assert summary == "ball: %d vertices, %d edges (distances are upper " \
        "bounds)\n" % (len(doc["vertices"]), len(doc["edges"]))
    export = tmp_path / "ball.json"
    assert run(args + ["--json", "--export", str(export)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(export.read_text()) == doc


def test_ball_script_rejects_negative_twist_powers():
    src = Path(nscurves.__file__).parent.parent
    script = src.parent / "scripts" / "measure_ball_delta.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--twist-powers", "-3", "--bounds",
         "12"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: twist_powers must be a count")
    assert proc.stderr.count("\n") == 1


def test_ball_script_checks_every_bound_before_it_prints():
    # a negative bound after a good one fails before the first ball is built
    src = Path(nscurves.__file__).parent.parent
    script = src.parent / "scripts" / "measure_ball_delta.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--bounds", "12", "-5"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: complexity_bound must be a count")
    assert proc.stderr.count("\n") == 1


def test_suite_script_exits_2_when_out_is_a_file(tmp_path):
    src = Path(nscurves.__file__).parent.parent
    script = src.parent / "scripts" / "run_verification_suite.py"
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    proc = subprocess.run(
        [sys.executable, str(script), "--samples", "1", "--out", str(taken)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and str(taken) in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert taken.read_text() == "not a directory"


def test_suite_script_exits_2_on_usage_errors_and_3_on_bugs(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    src = Path(nscurves.__file__).parent.parent
    script = src.parent / "scripts" / "run_verification_suite.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--samples", "-1", "--out",
         str(tmp_path / "neg")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: samples must be a count")
    assert proc.stderr.count("\n") == 1
    # a bug is never read as a failed bound (exit 1)
    spec = importlib.util.spec_from_file_location("suite_script", script)
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)

    def broken(*args, **kwargs):
        raise InternalInvariantError("planted")
    monkeypatch.setattr(suite, "run_verifier", broken)
    monkeypatch.setattr(sys, "argv", [str(script), "--samples", "1",
                                      "--out", str(tmp_path / "bug")])
    assert suite.main() == 3
    assert capsys.readouterr().err == "internal error: planted\n"


def test_twist_literals_take_a_generator_as_their_base(s20, capsys):
    # no pq: literal names a closed genus-2 curve; a generator's name does
    gens = dict(twist_generators(s20))
    assert parse_curve("tw:@A", s20) is gens["A"]
    assert parse_curve("tw:B.C-1@A", s20) == \
        dehn_twist(dehn_twist(gens["A"], gens["B"], 1), gens["C"], -1)
    assert run(["--surface", "g2b0", "curve", "tw:@A", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["class"] == [1, 0, 0, 0]
    assert run(["--surface", "g2b0", "curve", "tw:B.C-1@A"]) == 0
    capsys.readouterr()
    for literal in ("tw:@Z", "tw:A@Q", "tw:@pq:1/0"):
        assert run(["--surface", "g2b0", "curve", literal]) == 2, literal
        assert "error:" in capsys.readouterr().err


def test_ball_script_takes_a_generator_center_on_a_closed_surface():
    src = Path(nscurves.__file__).parent.parent
    script = src.parent / "scripts" / "measure_ball_delta.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--surface", "g2b0", "--center",
         "tw:@A", "--bounds", "12"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "surface g2b0, center tw:@A, radius 2, flavor ns"
    assert lines[1].startswith("  bound  12:") and "delta = " in lines[1]


def test_suite_script_reports_agree_across_hash_seeds(tmp_path):
    src = Path(nscurves.__file__).parent.parent
    script = src.parent / "scripts" / "run_verification_suite.py"
    outs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / hash_seed
        proc = subprocess.run(
            [sys.executable, str(script), "--samples", "2", "--seed", "0",
             "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=str(src),
                     PYTHONHASHSEED=hash_seed),
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert len(list(out.iterdir())) == 21
        outs.append(out)
    for path in sorted(outs[0].iterdir()):
        first = json.loads(path.read_text())
        second = json.loads((outs[1] / path.name).read_text())
        assert reports_equal(first, second), path.name


def test_branch_search_script_projects_a_triple():
    # the search sends every projection branch through the glued route
    src = Path(nscurves.__file__).parent.parent
    script = src.parent / "scripts" / "search_uncovered_branches.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--attempts", "10", "--surfaces",
         "g2b1", "--seed", "0"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True)
    assert proc.returncode == 0, proc.stderr
    row = proc.stdout.splitlines()[0].split()
    assert row[0] == "g2b1" and row[3].startswith("triples=")
    assert int(row[3].split("=")[1]) >= 1


def test_projection_wall_script_times_t1():
    # T1's 28 projections give the witnesses recorded since they were
    # first timed
    src = Path(nscurves.__file__).parent.parent
    script = src.parent / "scripts" / "time_projection_walls.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--triples", "T1"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True)
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    name, count, seconds, digest = line.split()
    assert (name, count) == ("T1", "projections=28")
    assert float(seconds.split("=")[1]) > 0
    assert digest == ("sha256=220d61a9f4a093420f6b7fb40b64178d"
                      "636076db2ad4f13f72136f80ab8133b9")
