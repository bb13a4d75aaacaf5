import json
import os
import subprocess
import sys
import time

import pytest

from equihom import equivariant
from equihom.cli import MAX_DEGREES, InputError, _parse_range, main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_killed_after(seconds, *argv):
    """The CLI in a child process killed after the given time, so that an
    input the CLI should refuse fails the test instead of hanging it."""
    proc = subprocess.run(
        [sys.executable, "-m", "equihom.cli", *argv],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
        text=True, timeout=seconds)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv", [
    ("compute", "--builtin", "point", "--range=-100000000..0"),
    ("e2", "--builtin", "point", "--depth", "100000000"),
])
def test_oversized_degree_span_exits_two(argv):
    code, out, err = run_killed_after(60, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "cap %d" % MAX_DEGREES in err


def test_complete_graph_pair_stays_fast(tmp_path):
    """Two copies of the complete graph K_32 swapped by the involution: the
    action is free, so H_1 over Z is that of the quotient K_32, Z^465.
    Its 465 x 465 edge map is computed on sparse chain maps in seconds;
    with dense ones it took 45 s on a 2-vCPU host, past the limit."""
    n = 32
    edges = [[a, b] for a in range(n) for b in range(a + 1, n)]
    path = tmp_path / "k32-pair.json"
    path.write_text(json.dumps({
        "vertices": 2 * n,
        "simplices": edges + [[a + n, b + n] for a, b in edges],
        "involution": [(v + n) % (2 * n) for v in range(2 * n)]}))
    code, out, _ = run_killed_after(30, "compute", "--file", str(path),
                                    "--coeff", "Z", "--range=1..1", "--json")
    assert code == 0
    assert json.loads(out)["items"][0]["group_str"] == "Z^465"


def test_closed_pipe_exits_one_without_a_traceback():
    """A reader that stops early, as `| head -2` does, closes the pipe while
    the report is written: the CLI exits 1 and prints nothing.  The report
    is larger than a pipe buffer, so its write cannot finish first."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "equihom.cli", "classify", "--enumerate", "3",
         "--json"], env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
    err = proc.stderr.read()
    proc.stderr.close()
    assert first == b"{\n"
    assert b"Traceback" not in err and err == b""
    assert code == 1


def test_degree_cap_boundary():
    assert _parse_range("%d..0" % (1 - MAX_DEGREES)) == (1 - MAX_DEGREES, 0)
    with pytest.raises(InputError, match="cap"):
        _parse_range("%d..0" % -MAX_DEGREES)


class TestCompute:
    def test_point_pattern(self, capsys):
        code, out, _ = run(capsys, "compute", "--builtin", "point",
                           "--coeff", "Z", "--range", "-3..0", "--json")
        assert code == 0
        report = json.loads(out)
        groups = {item["degree"]: item["group"] for item in report["items"]}
        assert groups[0] == {"free_rank": 1, "torsion": []}
        assert groups[-1] == {"free_rank": 0, "torsion": []}
        assert groups[-2] == {"free_rank": 0, "torsion": [2]}
        assert groups[-3] == {"free_rank": 0, "torsion": []}

    def test_circle_reflection_dims(self, capsys):
        code, out, _ = run(capsys, "compute", "--builtin",
                           "circle-reflection", "--coeff", "Z2",
                           "--range", "-2..1", "--json")
        assert code == 0
        report = json.loads(out)
        dims = {item["degree"]: len(item["group"]["torsion"])
                for item in report["items"]}
        assert dims == {-2: 2, -1: 2, 0: 2, 1: 1}

    def test_malformed_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": 2, "simplices": [[0, 5]], '
                        '"involution": [0, 1]}')
        code, _, err = run(capsys, "compute", "--file", str(path))
        assert code == 2
        assert "simplices[0]" in err

    @pytest.mark.parametrize("obj, field", [
        ({"vertices": True, "simplices": [[0]], "involution": [0]},
         "vertices"),
        ({"vertices": 2, "simplices": [[0, "a"]], "involution": [0, 1]},
         "simplices[0]"),
        ({"vertices": 2, "simplices": [[0, 1], [1, None]],
          "involution": [0, 1]}, "simplices[1]"),
        ({"vertices": 2, "simplices": [[0, True]], "involution": [0, 1]},
         "simplices[0]"),
        ({"vertices": 2, "simplices": [[0, 1]], "involution": [0, True]},
         "involution[1]"),
        ({"vertices": 2, "simplices": [[0, 1]], "involution": [0, 1.0]},
         "involution[1]"),
    ])
    def test_malformed_entry_names_field(self, capsys, tmp_path, obj, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "compute", "--file", str(path))
        assert code == 2
        assert err.startswith("error: %s: " % field)

    def test_missing_image_past_a_regularity_violation_exits_two(
            self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"vertices": 4,
                                    "simplices": [[0, 1], [1, 2], [3]],
                                    "involution": [1, 0, 2, 3]}))
        code, out, err = run(capsys, "compute", "--file", str(path))
        assert code == 2 and out == ""
        assert err == ("error: involution is not simplicial: image of "
                       "[1, 2] missing\n")

    @pytest.mark.parametrize("n, swap, count", [
        (30, False, 2 ** 30 - 1),
        (8, True, 1091669),
    ])
    def test_huge_file_exits_two(self, capsys, tmp_path, n, swap, count):
        involution = list(range(n))
        if swap:
            involution[:2] = [1, 0]
        path = tmp_path / "simplex.json"
        path.write_text(json.dumps({"vertices": n,
                                    "simplices": [list(range(n))],
                                    "involution": involution}))
        start = time.process_time()
        code, out, err = run(capsys, "compute", "--file", str(path),
                             "--coeff", "Z", "--range", "0..0")
        assert time.process_time() - start < 1
        assert code == 2 and out == ""
        assert " %d simplices, past the cap 1000000" % count in err

    def test_unknown_builtin_exits_two(self, capsys):
        code, _, err = run(capsys, "compute", "--builtin", "moebius")
        assert code == 2
        assert "unknown builtin" in err

    def test_les_exactness_failure_exits_one(self, capsys, monkeypatch):
        # a non-exact long exact sequence is an internal bug, not bad input
        monkeypatch.setattr(equivariant, "exact_at", lambda inc, out: False)
        code, out, err = run(capsys, "compute", "--builtin",
                             "circle-reflection", "--range", "0..1", "--les")
        assert code == 1
        assert out == ""
        assert err.startswith("internal error: edge sequence not exact at "
                              "H_1(X;G,")
        assert "Traceback" not in err

    def test_cohomology_mode(self, capsys):
        code, out, _ = run(capsys, "compute", "--builtin", "point",
                           "--coeff", "Z", "--range", "0..4", "--json",
                           "--cohomology")
        assert code == 0
        report = json.loads(out)
        groups = {item["degree"]: item["group"]["torsion"]
                  for item in report["items"]}
        assert groups[2] == [2] and groups[1] == []

    def test_les_with_cohomology_exits_two(self, capsys):
        # the sequences are verified for homology only, so the two clash
        with pytest.raises(SystemExit) as err:
            main(["compute", "--builtin", "point", "--cohomology", "--les"])
        assert err.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_les_sequences_over_z(self, capsys):
        code, out, _ = run(capsys, "compute", "--builtin",
                           "circle-reflection", "--coeff", "Z",
                           "--range", "-2..1", "--les", "--json")
        assert code == 0
        sequences = json.loads(out)["sequences"]
        assert [seq["sequence"] for seq in sequences] == ["edge",
                                                          "coefficient"]
        for seq in sequences:
            assert sorted(seq) == ["exact", "nodes", "sequence"]
            assert seq["exact"] is True
            # three nodes per degree of the range
            assert len(seq["nodes"]) == 12
            for node in seq["nodes"]:
                assert sorted(node) == ["at", "degree", "exact", "group"]


class TestClassify:
    def test_file(self, capsys, tmp_path):
        path = tmp_path / "type.json"
        path.write_text(json.dumps({
            "half1": [{"orientable": False, "genus": 3}],
            "half2": [{"orientable": True, "genus": 0}],
        }))
        code, out, _ = run(capsys, "classify", "--file", str(path),
                           "--json")
        assert code == 0
        item = json.loads(out)["items"][0]
        assert item["dim_h1"] == 3 and item["dim_h1_alg"] == 2
        assert item["is_gm"] and item["is_zgm"]
        assert item["brauer"] == {"free_rank": 0, "torsion": [2, 2, 2]}

    def test_enumerate_is_deterministic(self, capsys):
        code, out1, _ = run(capsys, "classify", "--enumerate", "2", "--json")
        assert code == 0
        code, out2, _ = run(capsys, "classify", "--enumerate", "2", "--json")
        assert out1 == out2
        assert len(json.loads(out1)["items"]) == 1 + 13 + 182

    def test_json_report_is_streamed(self, monkeypatch):
        class Sink:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)
                return len(text)

            def flush(self):
                pass

        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(["classify", "--enumerate", "3", "--json"]) == 0
        text = "".join(sink.writes)
        assert max(map(len, sink.writes)) <= 4096
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_invalid_genus_exits_two(self, capsys, tmp_path):
        path = tmp_path / "type.json"
        path.write_text(json.dumps({
            "half1": [{"orientable": False, "genus": 12}],
            "half2": [],
        }))
        code, _, err = run(capsys, "classify", "--file", str(path))
        assert code == 2
        assert "genus" in err

    def test_boolean_genus_exits_two(self, capsys, tmp_path):
        # JSON true is no integer, although Python's bool is an int
        path = tmp_path / "type.json"
        path.write_text(json.dumps({
            "half1": [{"orientable": True, "genus": True}],
            "half2": [],
        }))
        code, out, err = run(capsys, "classify", "--file", str(path))
        assert code == 2 and out == ""
        assert "half1[0].genus" in err


@pytest.mark.parametrize("command", ["compute", "classify"])
@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",                # a UTF-16 byte-order mark: not UTF-8
    b"[" * 100000,                 # nested past the parser's recursion limit
    b'{"vertices": ' + b"1" * 5000 + b"}",  # past int's digit limit
], ids=["not-utf8", "too-deep", "too-long"])
def test_unreadable_file_exits_two(capsys, tmp_path, command, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run(capsys, command, "--file", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


class TestE2:
    def test_table_rendering(self, capsys):
        code, out, _ = run(capsys, "e2", "--builtin", "circle-reflection",
                           "--coeff", "Z2")
        assert code == 0
        assert "q\\p" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "e2", "--builtin", "point",
                           "--coeff", "Z", "--json")
        report = json.loads(out)
        entry = {(item["p"], item["q"]): item["group"]
                 for item in report["items"]}
        assert entry[(-2, 0)] == {"free_rank": 0, "torsion": [2]}

    @pytest.mark.parametrize("fmt", ["--text", "--json"])
    def test_negative_depth_exits_two(self, capsys, fmt):
        code, out, err = run(capsys, "e2", "--builtin", "point",
                             "--depth", "-5", fmt)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "depth" in err

    def test_empty_complex_renders_empty_page(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(
            {"vertices": 0, "simplices": [], "involution": []}))
        code, out, err = run(capsys, "e2", "--file", str(path))
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "second page for %s with Z2 coefficients" % path, "  q\\p "]


class TestVerify:
    def test_duality_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "duality", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["failed"] == 0 and report["passed"] > 0

    def test_all_matches_the_pinned_report(self, capsys):
        """verify all --json, byte for byte, against the committed report;
        a change to a check updates tests/data/verify_all.json."""
        code, out, _ = run(capsys, "verify", "all", "--json")
        with open(os.path.join(DATA, "verify_all.json"),
                  encoding="utf-8") as fh:
            pinned = fh.read()
        if out != pinned:
            got, want = json.loads(out)["checks"], json.loads(pinned)["checks"]
            differing = [w["name"] for g, w in zip(got, want) if g != w]
            pytest.fail("verify all --json differs from the pinned report; "
                        "first differing check: %s" % (
                            differing[0] if differing else
                            "none (the counts or the layout differ)"))
        assert code == 0

    def test_unknown_suite_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "everything"])
        assert err.value.code == 2

    def test_text_rendering(self, capsys):
        code, out, _ = run(capsys, "verify", "duality")
        assert code == 0
        assert "suite duality" in out and "ok  " in out
