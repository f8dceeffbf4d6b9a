"""CLI tests (argument wiring and command behaviour)."""

import json

import pytest

from repro.api.specs import BenchmarkSpec, load_persisted_specs, persist_spec
from repro.cli import build_parser, main
from repro.core.stages import STARTUP_SECONDS
from repro.storage.artifacts import ArtifactStore
from repro.suite.registry import SUITE_REGISTRY


def write_spec(tmp_path, name="cli_touch", **overrides):
    payload = {
        "name": name,
        "description": "create then close a new file",
        "tags": ["custom", "cli-demo"],
        "program": {
            "ops": [
                {"call": "creat", "args": ["made.txt", 420], "result": "fd",
                 "target": True},
                {"call": "close", "args": ["$fd"], "target": True},
            ],
        },
    }
    payload.update(overrides)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    return path


class TestParser:
    def test_run_requires_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_tool_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--tool", "magic", "--benchmark", "open"])

    @pytest.mark.parametrize("command", ["batch", "synth"])
    def test_max_workers_is_not_an_option(self, command):
        # batches and synthesis run serially; a parallel sweep goes to
        # a worker fleet (serve --workers N)
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--max-workers", "2"])
        assert excinfo.value.code == 2


class TestCommands:
    def test_run_ok(self, capsys):
        code = main(["run", "--benchmark", "open", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "open/spade: ok" in out

    def test_run_with_graph(self, capsys):
        main(["run", "--benchmark", "open", "--seed", "3", "--show-graph"])
        assert "digraph" in capsys.readouterr().out

    def test_run_empty_benchmark(self, capsys):
        code = main(["run", "--tool", "camflow", "--benchmark", "dup",
                     "--seed", "3", "--trials", "2"])
        assert code == 0
        assert "empty" in capsys.readouterr().out

    def test_batch_text(self, capsys):
        code = main([
            "batch", "--benchmarks", "open", "dup", "--seed", "3",
            "--result-type", "rb",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("/spade:") == 2

    def test_batch_warm_store_serves_every_stage(self, tmp_path, capsys):
        """The CI store smoke: a second ``batch`` over the same store,
        through a fresh service and store, restores all four stages."""
        argv = ["batch", "--benchmarks", "open", "--tool", "spade",
                "--seed", "5", "--store", str(tmp_path / "store")]
        assert main(argv) == 0
        assert ("artifact store: 0 stage hits, 4 misses"
                in capsys.readouterr().out)
        assert main(argv) == 0
        assert ("artifact store: 4 stage hits, 0 misses"
                in capsys.readouterr().out)

    def test_batch_html(self, tmp_path, capsys):
        target = tmp_path / "index.html"
        code = main([
            "batch", "--benchmarks", "open", "--seed", "3",
            "--result-type", "rh", "--out", str(target),
        ])
        assert code == 0
        assert target.exists()

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "open" in out
        assert "group 4" in out

    def test_list_shows_registry_tags(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        open_line = next(
            line for line in out.splitlines() if line.startswith("open ")
        )
        assert "[builtin,table2,files]" in open_line

    def test_list_tags_filter(self, capsys):
        assert main(["list", "--tags", "failure"]) == 0
        out = capsys.readouterr().out
        assert "open_fail" in out
        assert "\nopen " not in out and not out.startswith("open ")

    def test_list_unmatched_tags_is_not_found(self, capsys):
        assert main(["list", "--tags", "nosuchtag"]) == 2
        err = capsys.readouterr().err
        assert "no benchmarks match tags" in err

    def test_list_tools_refuses_benchmark_filters(self, capsys):
        assert main(["list", "--tools", "--tags", "synth"]) == 2
        err = capsys.readouterr().err
        assert "cannot be combined with --tools" in err

    def test_list_tags_covers_store_specs(self, tmp_path, capsys):
        store = tmp_path / "store"
        spec = write_spec(tmp_path, name="cli_tagged",
                          tags=["custom", "shiny"])
        assert main(["bench", "add", str(spec), "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["list", "--tags", "shiny", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "cli_tagged" in out and "shiny" in out

    def test_synth_registers_and_lists_survivors(self, capsys):
        code = main([
            "synth", "--seed", "5", "--count", "4", "--tools", "spade",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "synthesized 4 candidates (seed 5" in out
        assert "coverage: syscalls" in out
        kept = [
            line.split()[1] for line in out.splitlines()
            if line.startswith("kept ")
        ]
        try:
            assert kept, out
            # survivors landed in the shared registry with the synth tag
            for name in kept:
                assert "synth" in SUITE_REGISTRY.tags(name)
            assert main(["list", "--tags", "synth"]) == 0
            listed = capsys.readouterr().out
            for name in kept:
                assert name in listed
        finally:
            for name in kept:
                SUITE_REGISTRY.unregister(name)

    def test_synth_store_round_trip(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        code = main([
            "synth", "--seed", "5", "--count", "4", "--tools", "spade",
            "--store", store, "--no-register",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "persisted" in out
        kept = [
            line.split()[1] for line in out.splitlines()
            if line.startswith("kept ")
        ]
        assert kept
        # a later process resolves the persisted specs by name
        assert main([
            "run", "--benchmark", kept[0], "--tool", "spade",
            "--seed", "5", "--store", store,
        ]) in (0, 1)

    def test_synth_json_report(self, capsys):
        code = main([
            "synth", "--seed", "5", "--count", "3", "--tools", "spade",
            "--no-register", "--json",
        ])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["requested"] == 3
        assert payload["seed"] == 5
        assert "coverage" in payload

    def test_synth_unknown_tool_exits_2(self, capsys):
        code = main([
            "synth", "--seed", "1", "--count", "2", "--tools", "nosuch",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("provmark: unknown tool")

    def test_show_c_source(self, capsys):
        assert main(["show", "--benchmark", "close"]) == 0
        out = capsys.readouterr().out
        assert "#ifdef TARGET" in out

    def test_table4(self, capsys):
        assert main(["table4"]) == 0
        assert "Recording" in capsys.readouterr().out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "--- spade ---" in out
        assert "setresuid" in out

    def test_figures_are_byte_identical(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for number in range(5, 11):
            assert f"Figure {number} (" in out
        assert "FAILS" not in out
        assert main(["figures"]) == 0
        assert capsys.readouterr().out == out

    def test_figures_exit_1_when_a_claim_fails(self, capsys, monkeypatch):
        # without Neo4j's start-up OPUS no longer dwarfs CamFlow
        monkeypatch.setitem(STARTUP_SECONDS, "neo4j", 0.0)
        assert main(["figures"]) == 1
        assert "FAILS  opus processing" in capsys.readouterr().out


class TestUniformErrors:
    """Unknown tool/benchmark/profile: exit code 2, one line, no traceback."""

    def test_unknown_benchmark_run(self, capsys):
        code = main(["run", "--benchmark", "nosuch"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("provmark: unknown benchmark 'nosuch'")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_unknown_benchmark_batch(self, capsys):
        code = main(["batch", "--benchmarks", "open", "nosuch"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown benchmark 'nosuch'" in captured.err

    def test_unknown_profile(self, capsys):
        code = main(["run", "--profile", "zzz", "--benchmark", "open"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("provmark: unknown profile 'zzz'")
        assert len(captured.err.strip().splitlines()) == 1

    def test_unknown_benchmark_show(self, capsys):
        code = main(["show", "--benchmark", "nosuch"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown benchmark" in captured.err

    def test_unknown_tool_is_an_argparse_usage_error(self):
        # --tool is constrained by argparse choices: exit code 2 as well
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--tool", "dtrace", "--benchmark", "open"])
        assert excinfo.value.code == 2


class TestBenchCommands:
    """The declarative-spec authoring surface: add/validate/show/rm."""

    def _cleanup(self, name):
        if name in SUITE_REGISTRY and not SUITE_REGISTRY.is_builtin(name):
            SUITE_REGISTRY.unregister(name)

    def test_validate_ok(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "cli_validate_ok")
        assert main(["bench", "validate", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "cli_validate_ok" in out and "ok" in out and "digest" in out

    def test_validate_error_carries_full_path(self, tmp_path, capsys):
        """Satellite regression: the CLI renders the full nested field
        path, one line, exit 2 — identical to the HTTP envelope."""
        spec = write_spec(tmp_path, "cli_bad")
        payload = json.loads(spec.read_text())
        payload["program"]["ops"][1]["args"] = ["$nope"]
        spec.write_text(json.dumps(payload))
        code = main(["bench", "validate", str(spec)])
        captured = capsys.readouterr()
        assert code == 2
        assert "BenchmarkSpec.program.ops[1].args[0]" in captured.err
        assert "$nope" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_validate_rejects_bad_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["bench", "validate", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_add_run_show_rm_cycle(self, tmp_path, capsys):
        store = tmp_path / "store"
        spec = write_spec(tmp_path, "cli_cycle")
        try:
            assert main(["bench", "add", str(spec), "--store",
                         str(store)]) == 0
            assert "registered cli_cycle" in capsys.readouterr().out

            # runnable by name through --store (fresh service each call)
            code = main(["run", "--benchmark", "cli_cycle", "--seed", "3",
                         "--store", str(store)])
            assert code == 0
            assert "cli_cycle/spade: ok" in capsys.readouterr().out

            assert main(["bench", "show", "--benchmark", "cli_cycle",
                         "--store", str(store)]) == 0
            shown = json.loads(capsys.readouterr().out)
            assert shown["name"] == "cli_cycle"
            assert shown["program"]["ops"][0]["call"] == "creat"

            assert main(["bench", "rm", "--benchmark", "cli_cycle",
                         "--store", str(store)]) == 0
            assert "removed 1" in capsys.readouterr().out
            assert main(["bench", "rm", "--benchmark", "cli_cycle",
                         "--store", str(store)]) == 2
        finally:
            self._cleanup("cli_cycle")

    def test_rm_removes_a_spec_that_no_longer_decodes(self, tmp_path,
                                                       capsys):
        store = ArtifactStore(tmp_path / "store")
        spec = BenchmarkSpec.from_payload(
            json.loads(write_spec(tmp_path, "mine").read_text())
        )
        persist_spec(store, spec)
        (artifact,) = (tmp_path / "store" / "spec").glob("*.json")
        wrapper = json.loads(artifact.read_text())
        wrapper["payload"]["program"]["ops"][0]["flavour"] = "spicy"
        artifact.write_text(json.dumps(wrapper))
        assert load_persisted_specs(store) == []  # counted invalid
        assert main(["bench", "rm", "--benchmark", "mine", "--store",
                     str(tmp_path / "store")]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert not artifact.exists()

    def test_add_refuses_builtin_name(self, tmp_path, capsys):
        store = tmp_path / "store"
        spec = write_spec(tmp_path, "open")
        code = main(["bench", "add", str(spec), "--store", str(store)])
        captured = capsys.readouterr()
        assert code == 2
        assert "builtin" in captured.err

    def test_batch_tags_selects_custom(self, tmp_path, capsys):
        store = tmp_path / "store"
        spec = write_spec(tmp_path, "cli_tagged")
        try:
            assert main(["bench", "add", str(spec), "--store",
                         str(store)]) == 0
            capsys.readouterr()
            code = main(["batch", "--tags", "cli-demo", "--seed", "3",
                         "--store", str(store)])
            out = capsys.readouterr().out
            assert code == 0
            assert "cli_tagged/spade" in out
        finally:
            self._cleanup("cli_tagged")

    def test_show_builtin_as_spec(self, capsys):
        assert main(["bench", "show", "--benchmark", "tee"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert [op["call"] for op in shown["program"]["ops"]] == [
            "pipe", "pipe", "write", "tee"
        ]


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8321

    def test_serve_port_override(self):
        args = build_parser().parse_args(["serve", "--port", "0"])
        assert args.port == 0
