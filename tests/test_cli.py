"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_experiments_single(self, capsys):
        assert main(["experiments", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out
        assert "Camera" in out

    def test_experiments_unknown(self, capsys):
        assert main(["experiments", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "available:" in err

    def test_experiments_only_selection(self, capsys, tmp_path):
        assert (
            main(
                [
                    "experiments",
                    "--only",
                    "fig6,fig1",
                    "--cache-dir",
                    str(tmp_path / "cache"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.index("=== fig6 ===") < out.index("=== fig1 ===")
        assert "2/2 claims hold" in out

    def test_experiments_alias(self, capsys, tmp_path):
        assert (
            main(
                [
                    "experiments",
                    "fig10_table1",
                    "--no-cache",
                ]
            )
            == 0
        )
        assert "=== fig10 ===" in capsys.readouterr().out

    def test_experiments_list(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "efficiency" in out

    def test_experiments_save_writes_manifest(self, capsys, tmp_path):
        import json

        save_dir = tmp_path / "artifacts"
        assert (
            main(
                [
                    "experiments",
                    "fig1",
                    "--cache-dir",
                    str(tmp_path / "cache"),
                    "--save",
                    str(save_dir),
                ]
            )
            == 0
        )
        assert (save_dir / "fig1.txt").exists()
        manifest = json.loads((save_dir / "manifest.json").read_text())
        assert manifest["experiments"][0]["name"] == "fig1"
        assert manifest["cache"]["misses"] == 1

    def test_experiments_warm_cache_replays(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["experiments", "fig1", "--cache-dir", cache]) == 0
        first = capsys.readouterr().out
        assert main(["experiments", "fig1", "--cache-dir", cache]) == 0
        second = capsys.readouterr().out
        assert "cache: 1 hit(s)" in second
        # identical rendered figure either way (strip the stats footer)
        assert first.split("\n\n1/1")[0] == second.split("\n\n1/1")[0]

    def test_experiments_parallel_flag(self, capsys, tmp_path):
        assert (
            main(
                [
                    "experiments",
                    "--only",
                    "fig1,fig6",
                    "--parallel",
                    "2",
                    "--no-cache",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "=== fig1 ===" in out and "=== fig6 ===" in out

    def test_attack(self, capsys):
        assert main(["attack", "attack3", "--duration", "30"]) == 0
        out = capsys.readouterr().out
        assert "stock Android view" in out
        assert "E-Android view" in out
        assert "Cleaner" in out

    def test_attack_unknown(self, capsys):
        assert main(["attack", "attack99"]) == 2
        assert "unknown attack" in capsys.readouterr().err

    def test_census(self, capsys):
        assert main(["census", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "1124" in out

    def test_drain(self, capsys):
        assert main(["drain"]) == 0
        assert "brightness_full" in capsys.readouterr().out

    def test_dumpsys(self, capsys):
        assert main(["dumpsys"]) == 0
        out = capsys.readouterr().out
        assert "ACTIVITY MANAGER" in out
        assert "BATTERY" in out

    def test_no_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_hybrid_attack_via_cli(self, capsys):
        assert main(["attack", "hybrid", "--duration", "20"]) == 0
        assert "detector" in capsys.readouterr().out


class TestCliTraceAndChains:
    def test_trace_command(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", "attack3", "--duration", "20", "--out", str(out)]) == 0
        assert out.exists()
        text = capsys.readouterr().out
        assert "offline E-Android reconstruction" in text
        assert "Cleaner" in text

    def test_trace_without_out(self, capsys):
        assert main(["trace", "attack6", "--duration", "20"]) == 0
        assert "offline" in capsys.readouterr().out

    def test_trace_unknown(self, capsys):
        assert main(["trace", "nope"]) == 2

    def test_chains_command(self, capsys):
        assert main(["chains", "hybrid", "--duration", "20"]) == 0
        out = capsys.readouterr().out
        assert "longest chain" in out
        assert "Weatherpro" in out

    def test_chains_unknown(self, capsys):
        assert main(["chains", "nope"]) == 2


class TestCliServe:
    def _queries_file(self, tmp_path, rows):
        import json

        path = tmp_path / "queries.jsonl"
        path.write_text(
            "\n".join(json.dumps(row) for row in rows) + "\n", encoding="utf-8"
        )
        return path

    def test_serve_batch(self, capsys, tmp_path):
        queries = self._queries_file(
            tmp_path,
            [
                {"session": "*", "backend": "eandroid"},
                {"session": "*", "backend": "batterystats"},
                {"session": "*", "backend": "eandroid"},
            ],
        )
        save = tmp_path / "out"
        assert (
            main(
                [
                    "serve",
                    "--batch",
                    "corpus",
                    "--queries",
                    str(queries),
                    "--save",
                    str(save),
                    "--fail-on-shed",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "ingested" in out and "0 shed" in out
        import json

        manifest = json.loads((save / "manifest.json").read_text())
        assert manifest["stats"]["shed"] == 0
        assert manifest["cache"]["hits"] > 0  # repeated eandroid sweep
        assert (save / "responses.jsonl").exists()

    def test_serve_wildcard_ids_follow_their_line(self, capsys, tmp_path):
        import json

        plain = "chaos-seed0-bc07bedbd53905df"  # one corpus session
        queries = self._queries_file(
            tmp_path,
            [
                {"session": "*", "backend": "energy"},
                {"session": plain, "backend": "eandroid"},
            ],
        )
        save = tmp_path / "out"
        assert (
            main(
                ["serve", "--batch", "corpus", "--queries", str(queries),
                 "--save", str(save)]
            )
            == 0
        )
        sessions = json.loads((save / "manifest.json").read_text())["sessions"]
        responses = [
            json.loads(line)
            for line in (save / "responses.jsonl").read_text().splitlines()
        ]
        assert [(r["id"], r["session"]) for r in responses] == [
            (1, name) for name in sessions
        ] + [(2, plain)]

    def test_serve_bad_batch_path(self, capsys):
        assert main(["serve", "--batch", "no-such-dir"]) == 2
        assert "cannot ingest" in capsys.readouterr().err

    def test_serve_fail_on_shed_trips(self, tmp_path):
        """Only TCP admits overlapping arrivals, so only --listen sheds.

        A query the event loop can answer at once is never queued; a
        spilled session's miss (a store fault-in) is pool work, and that
        is what --queue bounds."""
        import json
        import os
        import signal
        import socket
        import subprocess
        import sys
        from pathlib import Path

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--batch", "corpus",
             "--store", str(tmp_path / "store"), "--spill",
             "--listen", "127.0.0.1:0", "--queue", "1", "--fail-on-shed"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = server.stderr.readline()
            while line and not line.startswith("listening on "):
                line = server.stderr.readline()
            assert line, "serve exited before it listened"
            host, _, port = line.split()[-1].rpartition(":")
            sessions = sorted(p.stem for p in Path("corpus").glob("*.json"))[:4]
            cold = b"".join(
                json.dumps(
                    {"id": i, "session": session, "backend": "eandroid"}
                ).encode() + b"\n"
                for i, session in enumerate(sessions, 1)
            )
            address = (host, int(port))
            with socket.create_connection(address, timeout=60) as conn:
                conn.sendall(cold)  # four spilled misses in one write
                with conn.makefile("rb") as replies:
                    statuses = [json.loads(replies.readline())["status"] for _ in range(4)]
            server.send_signal(signal.SIGINT)
            err = server.communicate(timeout=60)[1]
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
        assert sorted(statuses) == ["ok", "shed", "shed", "shed"]
        assert server.returncode == 1
        assert "--fail-on-shed: 3 quer(ies) shed" in err

    def test_serve_telemetry_flag(self, capsys, tmp_path):
        queries = self._queries_file(
            tmp_path, [{"session": "*", "backend": "powertutor"}]
        )
        assert (
            main(
                ["serve", "--batch", "corpus", "--queries", str(queries),
                 "--telemetry"]
            )
            == 0
        )
        assert "serve" in capsys.readouterr().out  # bus stats name the category


class TestObservabilityFlagAliases:
    """The pre-normalization spellings `--bus-stats` / `--chrome-trace`
    are gone: only `--telemetry` / `--trace-out` are accepted."""

    def test_bus_stats_alias(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["attack", "attack3", "--duration", "20", "--bus-stats"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --bus-stats" in capsys.readouterr().err

    def test_chrome_trace_alias(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["attack", "attack3", "--duration", "20",
                 "--chrome-trace", str(out)]
            )
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --chrome-trace" in capsys.readouterr().err
        assert not out.exists()

    def test_aliases_hidden_from_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        help_text = capsys.readouterr().out
        assert "--telemetry" in help_text and "--trace-out" in help_text
        assert "--bus-stats" not in help_text
        assert "--chrome-trace" not in help_text
