"""Command-line pipeline: artifacts, exit codes, determinism, and the
re-verification path."""

import hashlib
import io
import json
import shutil
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lllcolor.cli import _emit_error, main
from lllcolor.errors import LLLColorError, ParseError
from lllcolor.hindman import builtin_addition_like, parse_family
from lllcolor.streams import (
    Coloring,
    ConstraintStream,
    format_coloring,
    format_manifest,
    gen_sets_stream,
    parse_coloring,
    parse_manifest,
    single_color,
    write_manifest,
)
from lllcolor.verify import audit_solution
from test_streams import items_stream, stream_items, stream_provenance

ARTIFACTS = {
    "audit.json",
    "coloring.txt",
    "config.json",
    "family.txt",
    "sparsity.csv",
    "sparsity.json",
    "stream.txt",
}


def run_cli(*args):
    return main([str(a) for a in args])


def alternating_met_stream(count):
    """``count`` items of 8 positions below 4 060, with provenance, each
    met by the alternating coloring: a 1.3 MB manifest at 20 000 items."""
    items = tuple(
        tuple(range(j % 4000, j % 4000 + 8 * (2 * (j % 4) + 1), 2 * (j % 4) + 1))
        for j in range(count)
    )
    provenance = tuple((j % 24, j % 512) for j in range(count))
    return items_stream(8, Fraction(1, 2), items, provenance)


class TestRun:
    def test_comp_pipeline(self, tmp_path, capsys):
        out = tmp_path / "comp"
        rc = run_cli("run", "--mode", "comp", "--f", "sum", "--seed", "7",
                     "--horizon", "2048", "--members", "12", "--out", out)
        assert rc == 0
        assert {p.name for p in out.iterdir()} == ARTIFACTS
        audit = json.loads((out / "audit.json").read_text())
        assert audit["violations_total"] == 0
        config = json.loads((out / "config.json").read_text())
        assert config["M"] == 4 and config["mode"] == "comp"

    def test_main_pipeline(self, tmp_path):
        out = tmp_path / "main"
        rc = run_cli("run", "--mode", "main", "--f", "sum", "--seed", "3",
                     "--horizon", "2048", "--members", "5", "--out", out)
        assert rc == 0
        audit = json.loads((out / "audit.json").read_text())
        assert audit["ok"] and audit["bound_rule"] == "1*(M+i)"

    def test_M_below_least_names_value(self, tmp_path, capsys):
        rc = run_cli("run", "--mode", "main", "--f", "absdiff", "--M", "10",
                     "--seed", "1", "--horizon", "2048", "--members", "3",
                     "--out", tmp_path / "x")
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["least_valid"] == 19

    def test_horizon_floor(self, tmp_path, capsys):
        rc = run_cli("run", "--mode", "comp", "--f", "sum", "--seed", "1",
                     "--horizon", "8", "--members", "3", "--out", tmp_path / "x")
        assert rc == 2
        capsys.readouterr()

    def test_comp_requires_sum(self, tmp_path, capsys):
        rc = run_cli("run", "--mode", "comp", "--f", "absdiff", "--seed", "1",
                     "--horizon", "2048", "--members", "3", "--out", tmp_path / "x")
        assert rc == 2
        capsys.readouterr()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = run_cli("run", "--mode", "comp", "--f", "sum", "--seed", "7",
                         "--horizon", "2048", "--members", "12", "--out", out)
            assert rc == 0
        for name in ARTIFACTS:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    @pytest.mark.parametrize("config", [
        ("--mode", "comp", "--f", "sum", "--members", "12"),
        ("--mode", "main", "--f", "absdiff", "--members", "4"),
    ], ids=["comp-sum", "main-absdiff"])
    def test_pipeline_never_derives_every_item(self, tmp_path, monkeypatch, config):
        # every stage reads a stream's items as bases and shifts: none
        # derives an item's domain, let alone the tuple of all of them
        args = ("run", *config, "--seed", "7", "--horizon", "2048")
        assert run_cli(*args, "--out", tmp_path / "plain") == 0

        def refuse(stream, j):
            raise AssertionError("a pipeline stage derived an item's domain")

        monkeypatch.setattr(ConstraintStream, "dom", refuse)
        assert run_cli(*args, "--out", tmp_path / "based") == 0
        for name in sorted(ARTIFACTS):
            assert (tmp_path / "based" / name).read_bytes() == (
                tmp_path / "plain" / name
            ).read_bytes(), name

    def test_custom_q_plumbs_through(self, tmp_path):
        out = tmp_path / "q25"
        rc = run_cli("run", "--mode", "comp", "--f", "sum", "--q", "2/5",
                     "--seed", "4", "--horizon", "2048", "--members", "6",
                     "--out", out)
        assert rc == 0
        config = json.loads((out / "config.json").read_text())
        assert config["q"] == "2/5"
        assert config["M"] == 8  # least admissible at q = 2/5
        assert run_cli("verify", "--coloring", out / "coloring.txt",
                       "--stream", out / "stream.txt") == 0

    @pytest.mark.parametrize("q", ["1/0", "abc", "3/2"])
    def test_bad_q_is_a_configuration_error(self, tmp_path, capsys, q):
        rc = run_cli("run", "--mode", "comp", "--f", "sum", "--q", q, "--seed", "1",
                     "--horizon", "2048", "--members", "3", "--out", tmp_path / "x")
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == ("InvalidParameterError" if q == "3/2" else "ParseError")
        assert not (tmp_path / "x").exists()

    def test_first_window_horizon_fails_before_the_pipeline(self, tmp_path, capsys):
        # M = 4 gives a first window of 64 bits: horizon 64 commits only it,
        # and the audit starts past it
        out = tmp_path / "x"
        out.mkdir()
        rc = run_cli("run", "--mode", "comp", "--f", "sum", "--seed", "7",
                     "--horizon", "64", "--members", "3", "--out", out)
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "InvalidParameterError",
                       "message": "horizon 64 commits only the first window of 64 bits, "
                                  "where the audit starts"}
        assert list(out.iterdir()) == []

    def test_horizon_below_4M_reports_the_first_window(self, tmp_path, capsys):
        # M = 20 gives a first window of 4M = 80 bits, so a horizon under 4M
        # breaks the first-window rule, and that rule names it
        out = tmp_path / "x"
        out.mkdir()
        rc = run_cli("run", "--mode", "comp", "--f", "sum", "--M", "20", "--seed", "7",
                     "--horizon", "70", "--members", "3", "--out", out)
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "InvalidParameterError",
                       "message": "horizon 70 commits only the first window of 80 bits, "
                                  "where the audit starts"}
        assert list(out.iterdir()) == []

    def test_construction_failure_exits_three(self, tmp_path, monkeypatch, capsys):
        import lllcolor.cli as cli
        from lllcolor.errors import ConstructionFailureError

        def boom(stream, horizon, seed):
            raise ConstructionFailureError(2, (5,), "synthetic")

        monkeypatch.setattr(cli, "color_prefix", boom)
        rc = run_cli("run", "--mode", "comp", "--f", "sum", "--seed", "1",
                     "--horizon", "2048", "--members", "3", "--out", tmp_path / "x")
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConstructionFailureError"
        assert err["phase"] == 2

    def test_member_with_no_audited_set_exits_one(self, tmp_path, monkeypatch, capsys):
        import lllcolor.cli as cli
        from test_hindman import staged_family

        # the member's elements appear at stage 1000, so none of its
        # translates lies inside the 1024 committed bits
        fam = staged_family("ce", 1, 1024, (((1000, frozenset(range(990, 998))),),))
        monkeypatch.setattr(cli, "gen_family", lambda *args: fam)
        out = tmp_path / "x"
        rc = run_cli("run", "--mode", "comp", "--f", "sum", "--M", "8", "--seed", "7",
                     "--horizon", "1024", "--members", "1", "--out", out)
        assert rc == 1
        assert capsys.readouterr().err == "members with no audited set: [0]\n"
        audit = json.loads((out / "audit.json").read_text())
        assert audit["ok"] is False and audit["violations_total"] == 0

    def test_unwritable_out_is_a_configuration_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        rc = run_cli("run", "--mode", "comp", "--f", "sum", "--seed", "7",
                     "--horizon", "2048", "--members", "12", "--out", blocker / "out")
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "NotADirectoryError"
        assert str(blocker) in err["message"]

    def test_env_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LLLCOLOR_OUT", str(tmp_path / "envout"))
        rc = run_cli("run", "--mode", "main", "--f", "sum", "--seed", "3",
                     "--horizon", "2048", "--members", "4")
        assert rc == 0
        produced = list((tmp_path / "envout").iterdir())
        assert len(produced) == 1 and produced[0].name.startswith("main-sum-")


class TestVerify:
    @pytest.fixture(scope="class")
    def run_once(self, tmp_path_factory):
        # the slowest run of tier-1 (seed 5 at the default M resamples for
        # seconds in its first phase), so the class shares one
        out = tmp_path_factory.mktemp("verify") / "run"
        rc = run_cli("run", "--mode", "comp", "--f", "sum", "--seed", "5",
                     "--horizon", "2048", "--members", "10", "--out", out)
        assert rc == 0
        return out

    @pytest.fixture()
    def artifacts(self, run_once, tmp_path):
        # a copy per test: some tests edit the stream or the coloring
        return shutil.copytree(run_once, tmp_path / "run")

    def test_fresh_artifacts_verify(self, artifacts):
        assert run_cli("verify", "--coloring", artifacts / "coloring.txt",
                       "--stream", artifacts / "stream.txt") == 0

    @pytest.mark.parametrize("missing", ["coloring", "stream"])
    def test_unreadable_path_is_a_configuration_error(self, tmp_path, capsys, missing):
        paths = {"coloring": tmp_path / "coloring.txt", "stream": tmp_path / "stream.txt"}
        paths["stream"].write_text("stream sets M 2 q 1/2\nitem 0 2 0 1\n")
        paths["coloring"].write_text("coloring 2 0\n01\n")
        paths[missing] = tmp_path / "nonexistent"
        rc = run_cli("verify", "--coloring", paths["coloring"], "--stream", paths["stream"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"
        assert str(tmp_path / "nonexistent") in err["message"]

    def test_bit_flip_detected(self, tmp_path):
        # a two-element set whose coloring is exactly dichromatic: flipping
        # either bit makes it constant
        stream_text = "stream sets M 2 q 1/2\nitem 0 2 0 1\n"
        coloring_text = "coloring 2 0\n01\n"
        (tmp_path / "stream.txt").write_text(stream_text)
        (tmp_path / "coloring.txt").write_text(coloring_text)
        assert run_cli("verify", "--coloring", tmp_path / "coloring.txt",
                       "--stream", tmp_path / "stream.txt") == 0
        (tmp_path / "coloring.txt").write_text("coloring 2 0\n00\n")
        assert run_cli("verify", "--coloring", tmp_path / "coloring.txt",
                       "--stream", tmp_path / "stream.txt") == 1

    def test_partials_manifest_is_refused(self, tmp_path, capsys):
        # streams hold sets only; any other kind is a malformed manifest
        (tmp_path / "stream.txt").write_text("stream partials M 2 q 1/2\nitem 0 2 0 1\n")
        (tmp_path / "coloring.txt").write_text("coloring 2 0\n01\n")
        rc = run_cli("verify", "--coloring", tmp_path / "coloring.txt",
                     "--stream", tmp_path / "stream.txt")
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == "line 1: unknown stream kind 'partials'"

    def test_fingerprint_mismatch_warns(self, artifacts, tmp_path, capsys):
        other = tmp_path / "other"
        rc = run_cli("run", "--mode", "comp", "--f", "sum", "--seed", "6",
                     "--horizon", "2048", "--members", "10", "--out", other)
        assert rc == 0
        rc = run_cli("verify", "--coloring", artifacts / "coloring.txt",
                     "--stream", other / "stream.txt")
        err = capsys.readouterr().err
        assert "fingerprint" in err

    def test_verify_formats_nothing(self, artifacts, monkeypatch):
        # the parsed stream's fingerprint is the hash of the manifest text
        def refuse(stream, *write):
            raise AssertionError("verify formatted the manifest")

        for name in ("format_manifest", "write_manifest"):
            monkeypatch.setattr(f"lllcolor.streams.{name}", refuse)
            monkeypatch.setattr(f"lllcolor.cli.{name}", refuse)
        assert run_cli("verify", "--coloring", artifacts / "coloring.txt",
                       "--stream", artifacts / "stream.txt") == 0

    @pytest.mark.parametrize("lineno, bad", [(2, "# by x at 8"), (3, "item 0 4 -1 13 14 15")])
    def test_malformed_record_names_its_line(self, artifacts, capsys, lineno, bad):
        # a provenance comment with a bad integer, and a negative position
        # that would otherwise be read as the coloring's last bit
        lines = (artifacts / "stream.txt").read_text().splitlines(keepends=True)
        lines[lineno - 1] = bad + "\n"
        (artifacts / "stream.txt").write_text("".join(lines))
        capsys.readouterr()
        rc = run_cli("verify", "--coloring", artifacts / "coloring.txt",
                     "--stream", artifacts / "stream.txt")
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert err["message"].startswith(f"line {lineno}:")

    def test_unordered_positions_exit_two(self, artifacts, capsys):
        lines = (artifacts / "stream.txt").read_text().splitlines(keepends=True)
        assert lines[2].startswith("item 0 4 ")
        lines[2] = "item 0 4 13 12 14 15\n"
        (artifacts / "stream.txt").write_text("".join(lines))
        capsys.readouterr()
        rc = run_cli("verify", "--coloring", artifacts / "coloring.txt",
                     "--stream", artifacts / "stream.txt")
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ParseError",
                       "message": "line 3: positions must be nonnegative, increasing"}

    def test_first_of_two_faults_is_reported(self, artifacts, capsys):
        # the swapped item is reported on its line, by verify and by
        # parse_manifest alike, not the malformed record after it
        lines = (artifacts / "stream.txt").read_text().splitlines(keepends=True)
        assert lines[2].startswith("item 0 4 ") and lines[4].startswith("item 1 4 ")
        lines[2] = "item 0 4 13 12 14 15\n"
        lines[4] = "item 1 9 11 14\n"
        (artifacts / "stream.txt").write_text("".join(lines))
        message = "line 3: positions must be nonnegative, increasing"
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_manifest("".join(lines))
        capsys.readouterr()
        rc = run_cli("verify", "--coloring", artifacts / "coloring.txt",
                     "--stream", artifacts / "stream.txt")
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "ParseError", "message": message}

    def test_bad_coloring_bit_line_names_its_line(self, artifacts, capsys):
        lines = (artifacts / "coloring.txt").read_text().splitlines(keepends=True)
        assert lines[2].startswith("coloring ")
        lines[4] = lines[4][:10] + "x" + lines[4][11:]
        (artifacts / "coloring.txt").write_text("".join(lines))
        capsys.readouterr()
        rc = run_cli("verify", "--coloring", artifacts / "coloring.txt",
                     "--stream", artifacts / "stream.txt")
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert err["message"].startswith("line 5:")

    def test_truncated_stream_is_parse_error(self, artifacts, capsys):
        text = (artifacts / "stream.txt").read_text().splitlines()
        (artifacts / "stream.txt").write_text("\n".join(text[: len(text) // 2]) + " 1\n")
        rc = run_cli("verify", "--coloring", artifacts / "coloring.txt",
                     "--stream", artifacts / "stream.txt")
        assert rc == 2
        capsys.readouterr()


def reference_verify(coloring_path, stream_path):
    """``lllcolor verify`` as parse-then-walk: the whole manifest parsed
    into a stream, then each constraint inside the prefix judged, with the
    exit code and error report of ``main``."""
    try:
        stream = parse_manifest(stream_path.read_text(encoding="utf-8"))
        coloring = parse_coloring(coloring_path.read_text(encoding="utf-8"))
    except (LLLColorError, ValueError, OSError) as exc:
        _emit_error(exc)
        return 2
    if coloring.stream_fingerprint and coloring.stream_fingerprint != stream.fingerprint():
        print(
            f"warning: coloring fingerprint {coloring.stream_fingerprint} does not "
            f"match stream {stream.fingerprint()}",
            file=sys.stderr,
        )
    per_size = {}
    violated = []
    for j in range(len(stream)):
        dom = stream.dom(j)
        if dom[-1] >= coloring.committed_len:
            continue
        stat = per_size.setdefault(len(dom), [0, 0])
        stat[0] += 1
        if single_color(dom, coloring.bits):
            stat[1] += 1
            violated.append(j)
    for m in sorted(per_size):
        inside, bad = per_size[m]
        print(f"size {m}: {inside} constraints inside prefix, {bad} violated")
    total = sum(v[0] for v in per_size.values())
    print(f"total: {total} checked, {len(violated)} violated")
    if violated:
        print(f"violated constraint ids: {violated[:10]}", file=sys.stderr)
        return 1
    return 0


def captured(verify, *args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = verify(*args)
    return rc, out.getvalue(), err.getvalue()


def inject(lines, fault, data):
    """One fault, of the named kind, in a manifest's lines (a list, edited
    in place); the header is line 0, and items follow in order."""
    items = [n for n, line in enumerate(lines) if line.startswith("item ")]
    bys = [n for n, line in enumerate(lines) if line.startswith("# by ")]
    pick = lambda seq: seq[data.draw(st.integers(0, len(seq) - 1))]  # noqa: E731
    if fault == "cut-last":
        line = lines[-1]
        lines[-1] = line[: data.draw(st.integers(0, max(len(line) - 1, 0)))]
    elif fault == "formfeed":
        n = pick(range(len(lines)))
        at = data.draw(st.integers(0, len(lines[n])))
        lines[n] = lines[n][:at] + "\x0c" + lines[n][at:]
    elif fault == "repeated-header":
        lines.insert(data.draw(st.integers(1, len(lines))), lines[0])
    elif fault == "extra-by":
        lines.insert(data.draw(st.integers(0, len(lines))), "# by 3 at 4")
    elif fault == "drop-by" and bys:
        del lines[pick(bys)]
    elif items:
        n = pick(items)
        toks = lines[n].split()
        if fault == "bad-token" and len(toks) > 1:
            toks[pick(range(1, len(toks)))] = data.draw(st.sampled_from(["x", "1.5", "-", "0x3"]))
        elif fault == "unordered" and len(toks) > 4:
            i = data.draw(st.integers(3, len(toks) - 2))
            toks[i], toks[i + 1] = toks[i + 1], toks[i]
        elif fault == "short" and len(toks) > 3:
            del toks[3 + data.draw(st.integers(0, len(toks) - 4)):]
            toks[2] = str(len(toks) - 3)
        elif fault == "id" and len(toks) > 1:
            toks[1] = str(data.draw(st.integers(-1, len(items) + 1)))
        lines[n] = " ".join(toks)


FAULTS = ["bad-token", "unordered", "short", "id", "extra-by", "drop-by",
          "repeated-header", "cut-last", "formfeed"]


class TestStreamingVerify:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        seed=st.integers(0, 2**32),
        count=st.integers(0, 12),
        M=st.integers(1, 4),
        window=st.integers(24, 80),
        with_provenance=st.booleans(),
        faults=st.lists(st.sampled_from(FAULTS), max_size=2),
        stamp=st.sampled_from(["none", "own", "other"]),
        data=st.data(),
    )
    def test_matches_parse_then_walk(
        self, tmp_path, seed, count, M, window, with_provenance, faults, stamp, data
    ):
        # streaming verify reports what parsing the whole manifest and then
        # walking the stream reports: exit code, stdout and stderr alike.
        # With two faults that holds too: both report the first faulty line
        items = stream_items(gen_sets_stream(seed, count, window, M, spread=2))
        provenance = tuple((j, 3 * j + 1) for j in range(count)) if with_provenance else None
        lines = format_manifest(items_stream(M, Fraction(1, 2), items, provenance)).splitlines()
        for fault in faults:
            inject(lines, fault, data)
        text = "\n".join(lines) + data.draw(st.sampled_from(["\n", ""]))
        committed = data.draw(st.integers(0, window))
        bits = data.draw(st.text("01", min_size=committed, max_size=committed))
        stream_path, coloring_path = tmp_path / "stream.txt", tmp_path / "coloring.txt"
        stream_path.write_text(text, encoding="utf-8")
        own = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        stamps = {"none": "", "own": own, "other": "0123456789abcdef"}
        coloring_path.write_text(format_coloring(Coloring(bits, 1, stamps[stamp], 0, 0)))
        streamed = captured(main, ["verify", "--coloring", str(coloring_path),
                                   "--stream", str(stream_path)])
        assert streamed == captured(reference_verify, coloring_path, stream_path)
        if streamed[0] == 2:
            assert streamed[1] == ""

    @pytest.mark.parametrize(
        "records, message",
        [
            (f"item 0 2 {2**63} {2**63 + 1}", "positions must lie below 2**63"),
            (f"item 0 2 {2**63 - 2} {2**63}", "positions must lie below 2**63"),
            (f"# by 0 at {2**63}\nitem 0 2 0 1", "provenance must lie in [0, 2**63)"),
            ("# by -1 at 3\nitem 0 2 0 1", "provenance must lie in [0, 2**63)"),
        ],
        ids=["shift", "last-position", "by-past", "by-negative"],
    )
    def test_field_outside_a_column_exits_two_naming_its_line(self, tmp_path, records, message):
        # verify, which reads past the coloring's last bit as nothing to
        # check, and parse-then-walk refuse the field alike, on its line
        (tmp_path / "stream.txt").write_text(f"stream sets M 2 q 1/2\n{records}\n")
        (tmp_path / "coloring.txt").write_text(format_coloring(Coloring("01" * 32, 0, "", 0, 0)))
        args = (tmp_path / "coloring.txt", tmp_path / "stream.txt")
        streamed = captured(main, ["verify", "--coloring", str(args[0]), "--stream", str(args[1])])
        assert streamed[:2] == (2, "")
        assert json.loads(streamed[2]) == {"error": "ParseError", "message": f"line 2: {message}"}
        assert captured(reference_verify, *args) == streamed

    def test_undecodable_manifest_is_not_blamed_on_a_record(self, tmp_path, capsys):
        # the file is decoded ahead of the line being read, so a decode
        # error names no line
        (tmp_path / "stream.txt").write_bytes(b"stream sets M 2 q 1/2\nitem 0 2 0 1\n\xff\n")
        (tmp_path / "coloring.txt").write_text("coloring 2 0\n01\n")
        rc = run_cli("verify", "--coloring", tmp_path / "coloring.txt",
                     "--stream", tmp_path / "stream.txt")
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "UnicodeDecodeError"

    def test_malformed_line_is_reported_before_a_later_undecodable_byte(
        self, tmp_path, capsys
    ):
        # verify reads the manifest in order, so a malformed line 2 is the
        # error reported, not an undecodable byte 240 KB further down, which
        # parse-then-walk reports, having decoded the whole file first
        good = "".join(f"item {j} 2 {2 * j} {2 * j + 1}\n" for j in range(1, 12_000))
        text = f"stream sets M 2 q 1/2\nitem 0 2 0 x\n{good}".encode()
        assert len(text) > 240_000
        (tmp_path / "stream.txt").write_bytes(text + b"\xff\n")
        (tmp_path / "coloring.txt").write_text("coloring 2 0\n01\n")
        args = (tmp_path / "coloring.txt", tmp_path / "stream.txt")
        rc, out, err = captured(main, ["verify", "--coloring", str(args[0]),
                                       "--stream", str(args[1])])
        assert (rc, out) == (2, "")
        assert json.loads(err) == {
            "error": "ParseError",
            "message": "line 2: malformed record 'item 0 2 0 x'",
        }
        assert json.loads(captured(reference_verify, *args)[2])["error"] == "UnicodeDecodeError"

    def test_peak_memory_does_not_follow_the_manifest(self, tmp_path):
        # a 1.3 MB manifest.  Parsing it whole, then walking the stream,
        # peaks at 8.8 MB under tracemalloc; streaming it peaks at 1.08 MB,
        # and at 1.09 MB on 60 000 items
        count = 20_000
        stream = alternating_met_stream(count)
        (tmp_path / "stream.txt").write_text(format_manifest(stream))
        coloring = Coloring("01" * 2030, 0, stream.fingerprint(), 0, 0)
        (tmp_path / "coloring.txt").write_text(format_coloring(coloring))
        del stream
        args = ["verify", "--coloring", str(tmp_path / "coloring.txt"),
                "--stream", str(tmp_path / "stream.txt")]
        tracemalloc.start()
        try:
            rc, out, err = captured(main, args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (rc, err) == (0, "")
        assert out.endswith(f"total: {count} checked, 0 violated\n")
        assert peak < 2_000_000


class TestManifestWrite:
    def test_peak_memory_is_a_block_not_the_manifest(self, tmp_path):
        # the 1.3 MB manifest of the streaming verify test, written into a
        # file as `run` writes it.  Formatting the whole text, then writing
        # it, peaked at 6.5 MB under tracemalloc; blocks of 2 048 lines
        # peak at 0.64-0.69 MB on Python 3.10-3.13, a third of it the text
        # of each distinct position
        stream = alternating_met_stream(20_000)
        with (tmp_path / "stream.txt").open("w", encoding="utf-8") as file:
            tracemalloc.start()
            try:
                fingerprint = write_manifest(stream, file.write)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        text = (tmp_path / "stream.txt").read_text(encoding="utf-8")
        assert len(text) > 1_250_000
        assert text == format_manifest(stream)
        assert fingerprint == stream.fingerprint() == parse_manifest(text).fingerprint()
        assert peak < 1_000_000


class TestRoundTrips:
    def test_artifacts_reload(self, tmp_path):
        out = tmp_path / "run"
        run_cli("run", "--mode", "main", "--f", "absdiff", "--seed", "2",
                "--horizon", "2048", "--members", "3", "--out", out)
        stream = parse_manifest((out / "stream.txt").read_text())
        coloring = parse_coloring((out / "coloring.txt").read_text())
        assert coloring.stream_fingerprint == stream.fingerprint()
        assert coloring.committed_len >= 2048
        assert stream_provenance(stream) is not None


    @pytest.mark.parametrize("mode, f, members", [
        ("comp", "sum", 12), ("main", "absdiff", 6), ("main", "sum", 6),
    ], ids=["comp-sum", "main-absdiff", "main-sum"])
    def test_audit_recomputes_from_the_artifacts(self, tmp_path, mode, f, members):
        # the three smoke configs: the audit of the run's coloring against
        # its family and stream, read back from their files, is the run's
        # audit.json byte for byte
        out = tmp_path / "run"
        assert run_cli("run", "--mode", mode, "--f", f, "--seed", "7", "--horizon", "2048",
                       "--members", members, "--out", out) == 0
        audit = audit_solution(
            parse_coloring((out / "coloring.txt").read_text()),
            parse_family((out / "family.txt").read_text()),
            builtin_addition_like(f),
            stream=parse_manifest((out / "stream.txt").read_text()),
        )
        assert audit.to_json().encode() == (out / "audit.json").read_bytes()


class TestDemos:
    def test_pigeonhole(self, capsys):
        assert run_cli("demo", "pigeonhole") == 0
        out = capsys.readouterr().out
        assert "forced for all s <= 12" in out
        assert "0110" in out

    def test_baseline(self, capsys):
        assert run_cli("demo", "baseline") == 0
        out = capsys.readouterr().out
        assert "0011" in out
        assert "homogeneous translates in window: 0" in out

    def test_lll_cert(self, capsys):
        assert run_cli("demo", "lll-cert") == 0
        out = capsys.readouterr().out
        assert "q = 1/1: accept" in out
        assert "q = 3/4: refuse" in out
        assert "-5/216" in out
