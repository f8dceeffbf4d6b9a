"""Embedded Neo4j-substitute store tests."""

import json

import pytest

from repro.storage.neo4jsim import Neo4jSim, Neo4jSimError


@pytest.fixture
def store() -> Neo4jSim:
    s = Neo4jSim()
    s.create_node(1, "Process", {"pid": "42"})
    s.create_node(2, "Global", {"name": "/tmp/x"})
    s.create_relationship(3, 1, 2, "READS", {"n": "1"})
    return s


class TestLifecycle:
    def test_query_before_start_rejected(self, store):
        with pytest.raises(Neo4jSimError):
            list(store.match_nodes())

    def test_start_then_query(self, store):
        store.start()
        assert store.node_count() == 2
        assert store.relationship_count() == 1

    def test_shutdown_closes(self, store):
        store.start()
        store.shutdown()
        with pytest.raises(Neo4jSimError):
            store.node_count()


class TestQueries:
    def test_match_all_nodes(self, store):
        store.start()
        rows = list(store.match_nodes())
        assert {row[1] for row in rows} == {"Process", "Global"}

    def test_match_nodes_by_label(self, store):
        store.start()
        rows = list(store.match_nodes(label="Process"))
        assert len(rows) == 1
        node_id, label, props = rows[0]
        assert (node_id, label, props["pid"]) == (1, "Process", "42")

    def test_match_relationships(self, store):
        store.start()
        ((rel_id, start, end, rel_type, props),) = store.match_relationships()
        assert (rel_id, start, end, rel_type) == (3, 1, 2, "READS")
        assert props == {"n": "1"}

    def test_match_relationships_by_type(self, store):
        store.start()
        assert list(store.match_relationships(rel_type="GHOST")) == []

    def test_rows_are_copies(self, store):
        store.start()
        row1 = next(iter(store.match_nodes(label="Process")))
        row1[2]["pid"] = "tampered"
        row2 = next(iter(store.match_nodes(label="Process")))
        assert row2[2]["pid"] == "42"


class TestLazyLabelIndex:
    def test_label_index_not_built_by_start(self, store):
        store.start()
        assert store._label_index is None

    def test_unlabeled_queries_never_build_it(self, store):
        store.start()
        list(store.match_nodes())
        list(store.match_relationships())
        store.node_count()
        assert store._label_index is None

    def test_first_labeled_query_builds_it(self, store):
        store.start()
        list(store.match_nodes(label="Process"))
        assert store._label_index is not None

    def test_labeled_query_results_unchanged(self, store):
        """Regression: lazy index returns exactly the eager index's rows."""
        store.start()
        eager = {}
        for row in store._node_index.values():
            eager.setdefault(row.label, []).append(
                (row.node_id, row.label, dict(row.props))
            )
        for label in ("Process", "Global", "Ghost"):
            assert list(store.match_nodes(label=label)) == eager.get(label, [])

    def test_restart_invalidates_lazy_index(self, store):
        store.start()
        list(store.match_nodes(label="Process"))
        store.create_node(7, "Process", {"pid": "99"})
        store.start()  # replay picks the new node up
        rows = list(store.match_nodes(label="Process"))
        assert {row[0] for row in rows} == {1, 7}


class TestLazyRelTypeIndex:
    def test_rel_type_index_not_built_by_start(self, store):
        store.start()
        assert store._rel_type_index is None

    def test_untyped_queries_never_build_it(self, store):
        store.start()
        list(store.match_relationships())
        list(store.match_nodes())
        store.relationship_count()
        assert store._rel_type_index is None

    def test_first_typed_query_builds_it(self, store):
        store.start()
        list(store.match_relationships(rel_type="READS"))
        assert store._rel_type_index is not None

    def test_typed_query_results_unchanged(self, store):
        """Regression: indexed lookup equals a replay-order full scan."""
        store.start()
        scan = {}
        for rel in store._rel_index.values():
            scan.setdefault(rel.rel_type, []).append(
                (rel.rel_id, rel.start, rel.end, rel.rel_type, dict(rel.props))
            )
        for rel_type in ("READS", "WRITES", "GHOST"):
            assert (
                list(store.match_relationships(rel_type=rel_type))
                == scan.get(rel_type, [])
            )

    def test_restart_invalidates_index(self, store):
        store.start()
        list(store.match_relationships(rel_type="READS"))
        store.create_relationship(9, 2, 1, "READS", {"n": "2"})
        store.start()
        rows = list(store.match_relationships(rel_type="READS"))
        assert {row[0] for row in rows} == {3, 9}


class TestBatchedSession:
    def test_session_requires_start(self, store):
        with pytest.raises(Neo4jSimError):
            store.session()

    def test_session_rows_in_replay_order(self, store):
        store.start()
        session = store.session()
        assert [row.node_id for row in session.nodes()] == [1, 2]
        assert [rel.rel_id for rel in session.relationships()] == [3]

    def test_session_rows_match_queries(self, store):
        store.start()
        session = store.session()
        assert [
            (row.node_id, row.label, dict(row.props)) for row in session.nodes()
        ] == list(store.match_nodes())
        assert [
            (r.rel_id, r.start, r.end, r.rel_type, dict(r.props))
            for r in session.relationships()
        ] == list(store.match_relationships())

    def test_session_closed_after_shutdown(self, store):
        store.start()
        session = store.session()
        store.shutdown()
        with pytest.raises(Neo4jSimError):
            session.nodes()

    def test_single_parse_per_start(self, store, monkeypatch):
        """The compiled session parses each log line exactly once."""
        import json as json_module

        calls = {"n": 0}
        real_loads = json_module.loads

        def counting_loads(s, *a, **kw):
            calls["n"] += 1
            return real_loads(s, *a, **kw)

        import repro.storage.neo4jsim as mod

        monkeypatch.setattr(mod.json, "loads", counting_loads)
        store.start()
        assert calls["n"] == 3  # 2 nodes + 1 rel
        calls["n"] = 0
        list(store.match_nodes())
        list(store.match_relationships(rel_type="READS"))
        assert calls["n"] == 0  # queries never reparse


class TestPersistence:
    @pytest.mark.parametrize("props", [
        None, {}, {"pid": "42"}, {"z": "1", "a": "é\"\\\n", "m": ""},
    ])
    @pytest.mark.parametrize("label", ["Process", "Glo\"bal ü\u2603"])
    def test_rows_are_the_sorted_json_dumps_of_their_records(
        self, label, props
    ):
        store = Neo4jSim()
        store.create_node(12, label, props)
        store.create_relationship(10**9, 7, 123456, label, props)
        node = {"kind": "node", "id": 12, "label": label,
                "props": dict(props or {})}
        rel = {"kind": "rel", "id": 10**9, "start": 7, "end": 123456,
               "type": label, "props": dict(props or {})}
        assert store.dump_log().split("\n") == [
            json.dumps(node, sort_keys=True), json.dumps(rel, sort_keys=True),
        ]

    def test_log_roundtrip(self, store):
        text = store.dump_log()
        clone = Neo4jSim.from_log(text)
        clone.start()
        assert clone.node_count() == 2
        assert clone.relationship_count() == 1

    def test_startup_cost_scales_with_size(self, monkeypatch):
        """Start-up replays the whole log: one parse per record, so a
        2000-node log costs 200x the parses of a 10-node one."""
        import repro.storage.neo4jsim as mod

        small, large = Neo4jSim(), Neo4jSim()
        for i in range(10):
            small.create_node(i, "N", {"k": "v"})
        for i in range(2000):
            large.create_node(i, "N", {"k": "v"})
        calls = {"n": 0}
        real_loads = mod.json.loads

        def counting_loads(s, *a, **kw):
            calls["n"] += 1
            return real_loads(s, *a, **kw)

        monkeypatch.setattr(mod.json, "loads", counting_loads)
        small.start()
        small_parses, calls["n"] = calls["n"], 0
        large.start()
        assert (small_parses, calls["n"]) == (10, 2000)
