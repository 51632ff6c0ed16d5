"""Command-line pipeline: artifacts, exit codes, determinism, and the
re-verification path."""

import json

import pytest

from lllcolor.cli import main
from lllcolor.streams import parse_coloring, parse_manifest

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

    def test_negative_guard_fails_before_the_pipeline(self, tmp_path, capsys):
        out = tmp_path / "x"
        out.mkdir()
        rc = run_cli("run", "--mode", "comp", "--f", "sum", "--seed", "7",
                     "--horizon", "2048", "--members", "12", "--guard", "-1",
                     "--out", out)
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "InvalidParameterError",
                       "message": "guard must be nonnegative"}
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("guard", [2048, 5000])
    def test_guard_past_the_committed_prefix_fails_before_the_pipeline(
        self, tmp_path, capsys, guard
    ):
        # horizon 2048 at M = 4 commits exactly 2048 bits
        out = tmp_path / "x"
        out.mkdir()
        rc = run_cli("run", "--mode", "comp", "--f", "sum", "--seed", "7",
                     "--horizon", "2048", "--members", "12", "--guard", guard,
                     "--out", out)
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "InvalidParameterError",
                       "message": "guard must lie inside the committed prefix of 2048 bits"}
        assert list(out.iterdir()) == []

    def test_last_committed_position_is_a_valid_guard(self, tmp_path):
        out = tmp_path / "x"
        rc = run_cli("run", "--mode", "comp", "--f", "sum", "--seed", "7",
                     "--horizon", "2048", "--members", "12", "--guard", "2047",
                     "--out", out)
        assert rc == 0
        assert json.loads((out / "audit.json").read_text())["guard"] == 2047

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
    @pytest.fixture()
    def artifacts(self, tmp_path):
        out = tmp_path / "run"
        rc = run_cli("run", "--mode", "comp", "--f", "sum", "--seed", "5",
                     "--horizon", "2048", "--members", "10", "--out", out)
        assert rc == 0
        return out

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
        def refuse(stream):
            raise AssertionError("verify formatted the manifest")

        monkeypatch.setattr("lllcolor.streams.format_manifest", refuse)
        monkeypatch.setattr("lllcolor.cli.format_manifest", refuse)
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


class TestRoundTrips:
    def test_artifacts_reload(self, tmp_path):
        out = tmp_path / "run"
        run_cli("run", "--mode", "main", "--f", "absdiff", "--seed", "2",
                "--horizon", "2048", "--members", "3", "--out", out)
        stream = parse_manifest((out / "stream.txt").read_text())
        coloring = parse_coloring((out / "coloring.txt").read_text())
        assert coloring.stream_fingerprint == stream.fingerprint()
        assert coloring.committed_len >= 2048
        assert stream.provenance is not None


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
