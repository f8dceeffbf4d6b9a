"""Declarative benchmark specs: codecs, validator, compiler, persistence."""

import json

import pytest

from repro.api import BatchRequest, BenchmarkService, RunRequest
from repro.api.errors import ValidationError
from repro.api.specs import (
    BenchmarkSpec,
    compile_spec,
    load_persisted_specs,
    persist_spec,
    remove_persisted_spec,
    spec_digest,
    spec_from_program,
    syscall_table,
)
from repro.storage.artifacts import ArtifactStore
from repro.suite.registry import SUITE_REGISTRY


def make_payload(**overrides):
    """A minimal valid spec payload; overrides replace top-level keys."""
    payload = {
        "name": "touch_close",
        "description": "create then close a new file",
        "tags": ["custom", "demo"],
        "expectations": [{"tool": "spade", "classification": "ok"}],
        "program": {
            "ops": [
                {"call": "creat", "args": ["made.txt", 420], "result": "fd",
                 "target": True},
                {"call": "close", "args": ["$fd"], "target": True},
            ],
        },
    }
    payload.update(overrides)
    return payload


def error_of(payload) -> str:
    with pytest.raises(ValidationError) as excinfo:
        BenchmarkSpec.from_payload(payload).validate()
    return str(excinfo.value)


class TestStructuralDecoding:
    def test_minimal_payload_decodes(self):
        spec = BenchmarkSpec.from_payload(make_payload())
        assert spec.name == "touch_close"
        assert spec.program.ops[1].args == ("$fd",)

    def test_unknown_top_level_key(self):
        message = error_of(make_payload(bogus=1))
        assert "BenchmarkSpec" in message and "bogus" in message

    def test_unknown_nested_key_carries_full_path(self):
        payload = make_payload()
        payload["program"]["ops"][1]["flavour"] = "spicy"
        message = error_of(payload)
        assert "BenchmarkSpec.program.ops[1]" in message
        assert "flavour" in message

    def test_wrong_arg_type_carries_full_path(self):
        payload = make_payload()
        payload["program"]["ops"][0]["args"][1] = [1, 2]
        message = error_of(payload)
        assert "BenchmarkSpec.program.ops[0].args[1]" in message

    def test_bool_is_not_an_arg(self):
        payload = make_payload()
        payload["program"]["ops"][0]["args"][1] = True
        assert "args[1]" in error_of(payload)

    def test_bytes_args_travel_as_base64(self):
        payload = make_payload()
        payload["program"]["ops"] = [
            {"call": "creat", "args": ["f.txt", 420], "result": "fd"},
            {"call": "write", "args": ["$fd", {"base64": "aGVsbG8="}],
             "target": True},
        ]
        spec = BenchmarkSpec.from_payload(payload)
        assert spec.program.ops[1].args[1] == b"hello"
        rebuilt = BenchmarkSpec.from_payload(
            json.loads(json.dumps(spec.to_payload()))
        )
        assert rebuilt == spec

    def test_invalid_base64_rejected_with_path(self):
        payload = make_payload()
        payload["program"]["ops"][0]["args"] = [{"base64": "!!"}]
        message = error_of(payload)
        assert "ops[0].args[0]" in message and "base64" in message

    def test_missing_required_key(self):
        payload = make_payload()
        del payload["program"]["ops"][0]["call"]
        assert "'call'" in error_of(payload)

    def test_non_object_payload(self):
        assert "JSON object" in error_of([1, 2, 3])


class TestSemanticValidation:
    def test_unknown_syscall(self):
        payload = make_payload()
        payload["program"]["ops"][0]["call"] = "frobnicate"
        message = error_of(payload)
        assert "ops[0].call" in message and "frobnicate" in message

    def test_arity_too_many_args(self):
        payload = make_payload()
        payload["program"]["ops"][1]["args"] = ["$fd", 1, 2, 3]
        message = error_of(payload)
        assert "ops[1].args" in message and "argument" in message

    def test_arity_too_few_args(self):
        payload = make_payload()
        payload["program"]["ops"][0]["args"] = []
        assert "ops[0].args" in error_of(payload)

    def test_unbound_variable(self):
        payload = make_payload()
        payload["program"]["ops"][1]["args"] = ["$nope"]
        message = error_of(payload)
        assert "ops[1].args[0]" in message and "$nope" in message

    def test_background_variant_dataflow(self):
        # fg resolves ($fd bound by a target op) but bg drops the binder
        payload = make_payload()
        payload["program"]["ops"] = [
            {"call": "creat", "args": ["f.txt", 420], "result": "fd",
             "target": True},
            {"call": "close", "args": ["$fd"]},
        ]
        message = error_of(payload)
        assert "ops[1].args[0]" in message
        assert "background" in message

    def test_pipe_and_fork_implicit_bindings_accepted(self):
        payload = make_payload()
        payload["program"]["ops"] = [
            {"call": "pipe", "args": [], "result": "p"},
            {"call": "write", "args": ["$p_w", {"base64": "aGk="}]},
            {"call": "fork", "args": []},
            {"call": "kill", "args": ["$child", "SIGKILL"], "target": True},
        ]
        BenchmarkSpec.from_payload(payload).validate()

    def test_no_target_op(self):
        payload = make_payload()
        for op in payload["program"]["ops"]:
            op["target"] = False
        assert "target" in error_of(payload)

    def test_setup_path_escape_rejected(self):
        for bad in ("/etc/passwd", "../outside", "a/../../b"):
            payload = make_payload()
            payload["program"]["setup"] = [{"kind": "file", "path": bad}]
            message = error_of(payload)
            assert "setup[0].path" in message

    def test_symlink_requires_link_target(self):
        payload = make_payload()
        payload["program"]["setup"] = [{"kind": "symlink", "path": "l.txt"}]
        assert "setup[0].link_target" in error_of(payload)

    def test_uid_out_of_range(self):
        payload = make_payload()
        payload["program"]["run_as_uid"] = 1 << 20
        assert "run_as_uid" in error_of(payload)

    def test_bad_name(self):
        assert "name" in error_of(make_payload(name="no spaces allowed"))

    def test_duplicate_tag(self):
        message = error_of(make_payload(tags=["a", "b", "a"]))
        assert "tags[2]" in message and "duplicate" in message

    def test_bad_classification(self):
        payload = make_payload(
            expectations=[{"tool": "spade", "classification": "maybe"}]
        )
        assert "expectations[0].classification" in error_of(payload)

    def test_result_must_be_identifier(self):
        payload = make_payload()
        payload["program"]["ops"][0]["result"] = "$weird"
        assert "ops[0].result" in error_of(payload)

    def test_syscall_table_matches_kernel(self):
        table = syscall_table()
        assert table["creat"] == (1, 2)
        assert table["tee"] == (2, 3)
        assert table["pipe"] == (0, 0)
        assert "open" in table and "setresuid" in table

    def test_arg_type_confusion_rejected(self):
        # an int where the kernel wants a path string must fail at the
        # validation boundary, not crash inside the simulated kernel
        payload = make_payload()
        payload["program"]["ops"][0]["args"] = [123, 420]
        message = error_of(payload)
        assert "ops[0].args[0]" in message and "'path'" in message

    def test_var_in_string_position_rejected(self):
        # $vars resolve to ints; a path/data slot must refuse them at
        # the validation boundary instead of crashing the kernel
        payload = make_payload()
        payload["program"]["ops"] = [
            {"call": "creat", "args": ["a.txt", 420], "result": "fd"},
            {"call": "open", "args": ["$fd", "O_RDWR"], "target": True},
        ]
        message = error_of(payload)
        assert "ops[1].args[0]" in message and "'path'" in message

    def test_runtime_declaration_failure_is_validation_error(self):
        # validates (legal arity/dataflow) but the op's expect_success
        # is violated at run time: a 400-class error, never a 500
        payload = make_payload(name="bad_expect")
        payload["program"]["ops"] = [
            {"call": "open", "args": ["missing.txt", "O_RDONLY"],
             "result": "fd", "target": True},
        ]
        spec = BenchmarkSpec.from_payload(payload).validate()
        service = BenchmarkService(registry=SUITE_REGISTRY.builtin_copy())
        with pytest.raises(ValidationError, match="declaration"):
            service.run(RunRequest(spec=spec, tool="spade", seed=3))

    def test_rename_onto_itself_runs(self):
        # rename(2) onto the same name succeeds and changes nothing
        payload = make_payload(name="rename_self")
        payload["program"]["ops"] = [
            {"call": "creat", "args": ["a.txt", 420], "result": "fd"},
            {"call": "rename", "args": ["a.txt", "a.txt"], "target": True},
        ]
        spec = BenchmarkSpec.from_payload(payload).validate()
        service = BenchmarkService(registry=SUITE_REGISTRY.builtin_copy())
        classes = {
            tool: service.run(
                RunRequest(spec=spec, tool=tool, seed=7)
            ).result.classification.value
            for tool in ("spade", "opus", "camflow")
        }
        assert classes == {"spade": "empty", "opus": "ok", "camflow": "empty"}


class TestBuiltinRoundTrip:
    def test_every_builtin_round_trips_exactly(self):
        """Program -> BenchmarkSpec -> JSON -> BenchmarkSpec -> Program.

        Dataclass equality covers every field (ops, args incl. bytes,
        setup, credentials, expectations), so an equal Program has an
        identical repr — hence identical artifact-store key material and
        byte-identical pipeline results.
        """
        for name, program in SUITE_REGISTRY.items():
            spec = spec_from_program(program)
            spec.validate()
            wire = json.loads(json.dumps(spec.to_payload()))
            rebuilt = compile_spec(BenchmarkSpec.from_payload(wire))
            assert rebuilt == program, name
            assert repr(rebuilt) == repr(program), name

    def test_registry_spec_carries_tags(self):
        spec = SUITE_REGISTRY.spec("open")
        assert "table2" in spec.tags
        assert compile_spec(spec) == SUITE_REGISTRY.get("open")

    @pytest.mark.parametrize("name", ["rename", "tee", "vfork", "setresuid"])
    @pytest.mark.parametrize("tool", ["spade", "opus", "camflow"])
    def test_spec_run_results_identical(self, name, tool):
        """A spec-compiled program runs byte-identically to the builtin."""
        service = BenchmarkService(registry=SUITE_REGISTRY.builtin_copy())
        direct = service.run(RunRequest(benchmark=name, tool=tool, seed=11))
        spec = spec_from_program(SUITE_REGISTRY.get(name))
        via_spec = service.run(RunRequest(spec=spec, tool=tool, seed=11))
        a, b = direct.to_payload(), via_spec.to_payload()
        for payload in (a, b):
            for key in ("recording", "transformation", "generalization",
                        "comparison"):
                payload["result"]["timings"].pop(key)  # wall clock jitters
        assert a == b


class TestPersistence:
    def test_persist_load_remove(self, tmp_path):
        store = ArtifactStore(tmp_path)
        spec = BenchmarkSpec.from_payload(make_payload())
        digest = persist_spec(store, spec)
        assert digest == spec_digest(spec)
        # idempotent: same content, same key
        persist_spec(store, spec)
        loaded = load_persisted_specs(store)
        assert loaded == [spec]
        assert remove_persisted_spec(store, "touch_close") == 1
        assert load_persisted_specs(store) == []
        assert remove_persisted_spec(store, "touch_close") == 0

    def test_persist_replaces_stale_same_name_spec(self, tmp_path):
        """Editing a spec and re-adding it must not leave the old
        version behind to be resurrected by digest ordering."""
        store = ArtifactStore(tmp_path)
        original = BenchmarkSpec.from_payload(make_payload())
        edited = BenchmarkSpec.from_payload(
            make_payload(description="edited")
        )
        persist_spec(store, original)
        persist_spec(store, edited)
        loaded = load_persisted_specs(store)
        assert loaded == [edited]

    def test_corrupt_spec_artifacts_skipped(self, tmp_path):
        store = ArtifactStore(tmp_path)
        persist_spec(store, BenchmarkSpec.from_payload(make_payload()))
        (tmp_path / "spec" / "zzzz.json").write_text("{not json")
        before = store.stats.invalid
        assert len(load_persisted_specs(store)) == 1
        assert store.stats.invalid == before + 1

    def test_digest_is_content_addressed(self):
        a = BenchmarkSpec.from_payload(make_payload())
        b = BenchmarkSpec.from_payload(make_payload(description="different"))
        assert spec_digest(a) == spec_digest(a)
        assert spec_digest(a) != spec_digest(b)

    def test_service_resolves_persisted_specs(self, tmp_path):
        store = ArtifactStore(tmp_path)
        persist_spec(store, BenchmarkSpec.from_payload(make_payload()))
        service = BenchmarkService(registry=SUITE_REGISTRY.builtin_copy())
        response = service.run(RunRequest(
            benchmark="touch_close", tool="spade", seed=7,
            store_path=str(tmp_path),
        ))
        assert response.result.benchmark == "touch_close"
        assert response.result.classification.value == "ok"

    def test_tag_batch_over_stored_specs_replays_warm(self, tmp_path):
        """Specs persisted to a store run by tag from fresh services: the
        warm sweep repeats the cold one from the store's artifacts."""
        store = ArtifactStore(tmp_path)
        names = [f"gen_spec_{i}" for i in range(4)]
        for i, name in enumerate(names):
            persist_spec(store, BenchmarkSpec.from_payload(make_payload(
                name=name, tags=["custom", "genbench"],
                program={"ops": [
                    {"call": "creat", "args": [f"gen_{i}.txt", 420],
                     "result": "fd", "target": True},
                    {"call": "close", "args": ["$fd"], "target": True},
                ]},
            )))
        request = BatchRequest(
            tags=("genbench",), tool="spade", seed=2019,
            store_path=str(tmp_path),
        )
        cold, warm = (
            BenchmarkService(
                registry=SUITE_REGISTRY.builtin_copy()
            ).run_batch(request)
            for _ in range(2)
        )
        assert {r.result.benchmark for r in cold} == set(names)
        assert [r.result.benchmark for r in warm] == [
            r.result.benchmark for r in cold
        ]
        for cold_response, warm_response in zip(cold, warm):
            assert cold_response.result.target_graph == (
                warm_response.result.target_graph
            )
            assert cold_response.result.timings.store_hits == 0
            assert warm_response.result.timings.store_misses == 0

    def test_persisted_spec_loadable_again_after_unregister(self, tmp_path):
        """Unregistering must not tombstone the on-disk spec: a later
        run naming it (with the same store) reloads and succeeds."""
        store = ArtifactStore(tmp_path)
        persist_spec(store, BenchmarkSpec.from_payload(make_payload()))
        service = BenchmarkService(registry=SUITE_REGISTRY.builtin_copy())
        request = RunRequest(benchmark="touch_close", tool="spade", seed=7,
                             store_path=str(tmp_path))
        assert service.run(request).result.benchmark == "touch_close"
        service.unregister_benchmark("touch_close")
        assert service.run(request).result.benchmark == "touch_close"

    def test_failed_registration_retries_on_next_load(self, tmp_path,
                                                      monkeypatch):
        """A spec skipped because the registry was full is not
        remembered as consumed; it registers once room exists."""
        from repro.suite.registry import SuiteRegistry

        store = ArtifactStore(tmp_path)
        persist_spec(store, BenchmarkSpec.from_payload(make_payload()))
        monkeypatch.setattr(SuiteRegistry, "MAX_CUSTOM", 1)
        registry = SUITE_REGISTRY.builtin_copy()
        service = BenchmarkService(registry=registry)
        blocker = BenchmarkSpec.from_payload(make_payload(name="blocker"))
        service.register_benchmark(blocker)
        with pytest.warns(RuntimeWarning, match="skipped 1 persisted"):
            assert service.load_spec_store(str(tmp_path)) == 0  # full
        service.unregister_benchmark("blocker")
        assert service.load_spec_store(str(tmp_path)) == 1  # retried

    def test_skipped_specs_surface_a_warning(self, tmp_path, monkeypatch):
        from repro.suite.registry import SuiteRegistry

        store = ArtifactStore(tmp_path)
        persist_spec(store, BenchmarkSpec.from_payload(make_payload()))
        monkeypatch.setattr(SuiteRegistry, "MAX_CUSTOM", 0)
        service = BenchmarkService(registry=SUITE_REGISTRY.builtin_copy())
        with pytest.warns(RuntimeWarning, match="touch_close"):
            assert service.load_spec_store(str(tmp_path)) == 0
