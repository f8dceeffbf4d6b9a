"""The open SuiteRegistry and its module-level lookups."""

import pytest

from repro.suite.program import Op, Program
from repro.suite.registry import (
    SUITE_REGISTRY,
    SuiteRegistry,
    SuiteRegistryError,
    TABLE2_BENCHMARKS,
    TABLE2_ORDER,
    get_benchmark,
)


def custom_program(name="reg_custom", target_call="creat"):
    return Program(
        name=name,
        ops=(Op(target_call, ("file.txt", 0o644), result="fd", target=True),),
        group=0,
        group_name="Custom",
    )


@pytest.fixture()
def registry():
    return SuiteRegistry()


class TestOpenRegistry:
    def test_register_get_unregister(self, registry):
        program = custom_program()
        registry.register(program, tags=("custom",))
        assert registry.get("reg_custom") is program
        assert registry.tags("reg_custom") == ("custom",)
        assert not registry.is_builtin("reg_custom")
        assert registry.unregister("reg_custom") is program
        assert "reg_custom" not in registry

    def test_custom_entries_replaceable(self, registry):
        registry.register(custom_program())
        replacement = custom_program(target_call="unlink")
        registry.register(replacement)
        assert registry.get("reg_custom") is replacement

    def test_builtin_cannot_be_replaced_or_removed(self, registry):
        registry.register(custom_program("prot"), builtin=True)
        with pytest.raises(SuiteRegistryError):
            registry.register(custom_program("prot"))
        with pytest.raises(SuiteRegistryError):
            registry.unregister("prot")

    def test_unknown_name_message(self, registry):
        registry.register(custom_program("only"))
        with pytest.raises(KeyError, match="unknown benchmark 'nope'"):
            registry.get("nope")
        with pytest.raises(KeyError):
            registry.unregister("nope")

    def test_select_requires_all_tags(self, registry):
        registry.register(custom_program("a"), tags=("x", "y"))
        registry.register(custom_program("b"), tags=("x",))
        assert registry.select(["x"]) == ["a", "b"]
        assert registry.select(["x", "y"]) == ["a"]
        assert registry.select(["z"]) == []

    def test_custom_cap_enforced(self, registry, monkeypatch):
        monkeypatch.setattr(SuiteRegistry, "MAX_CUSTOM", 2)
        registry.register(custom_program("c1"))
        registry.register(custom_program("c2"))
        with pytest.raises(SuiteRegistryError, match="maximum"):
            registry.register(custom_program("c3"))
        # replacement does not count against the cap
        registry.register(custom_program("c2", target_call="unlink"))

    def test_register_rejects_non_program(self, registry):
        with pytest.raises(SuiteRegistryError):
            registry.register({"name": "nope"})

    def test_builtin_copy_preserves_metadata_and_isolates(self, registry):
        registry.register(custom_program("seedling"), tags=("x",),
                          builtin=True)
        registry.register(custom_program("transient"), tags=("y",))
        copy = registry.builtin_copy()
        assert copy.names() == ["seedling"]
        assert copy.tags("seedling") == ("x",)
        assert copy.is_builtin("seedling")
        copy.register(custom_program("only_in_copy"))
        assert "only_in_copy" not in registry

    def test_iterating_reads_survive_concurrent_mutation(self, registry):
        """select/items/names work over snapshots: a register during
        iteration must never raise 'dict changed size'."""
        import threading

        for i in range(50):
            registry.register(custom_program(f"c{i}"), tags=("churn",))
        stop = threading.Event()
        errors = []

        def mutate():
            i = 50
            while not stop.is_set():
                registry.register(custom_program(f"c{i}"), tags=("churn",))
                registry.unregister(f"c{i}")
                i += 1

        thread = threading.Thread(target=mutate)
        thread.start()
        try:
            for _ in range(300):
                try:
                    registry.select(["churn"])
                    registry.items()
                    list(registry)
                except RuntimeError as exc:  # pragma: no cover
                    errors.append(exc)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not errors


class TestDefaultRegistrySeed:
    def test_all_builtins_present(self):
        assert set(TABLE2_ORDER) <= set(SUITE_REGISTRY.names())
        assert SUITE_REGISTRY.is_builtin("open")
        assert "scale32" in SUITE_REGISTRY
        assert "socketpair" in SUITE_REGISTRY  # extended suite

    def test_builtin_tags(self):
        assert "table2" in SUITE_REGISTRY.tags("open")
        assert "files" in SUITE_REGISTRY.tags("open")
        assert "scalability" in SUITE_REGISTRY.tags("scale8")
        assert "extended" in SUITE_REGISTRY.tags("send")
        assert "failure" in SUITE_REGISTRY.tags("open_fail")

    def test_tag_selection_covers_table2(self):
        assert len(SUITE_REGISTRY.select(["table2"])) == len(TABLE2_BENCHMARKS)


class TestLegacyView:
    """``get_benchmark`` reads the default registry."""

    def test_get_benchmark_delegates(self):
        assert get_benchmark("open") is SUITE_REGISTRY.get("open")
        with pytest.raises(KeyError, match="unknown benchmark"):
            get_benchmark("made_up")
