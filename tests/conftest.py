"""Shared fixtures: small canonical graphs and pipeline factories."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.graph.model import PropertyGraph


@pytest.fixture
def tiny_graph() -> PropertyGraph:
    """The paper's Figure 4 sample graph g2: File--Used-->Process."""
    graph = PropertyGraph("g2")
    graph.add_node("n1", "File", {"Userid": "1", "Name": "text"})
    graph.add_node("n2", "Process")
    graph.add_edge("e1", "n1", "n2", "Used")
    return graph


@pytest.fixture
def volatile_pair():
    """Two similar graphs differing only in volatile property values."""
    def build(ts: str, pid: str) -> PropertyGraph:
        graph = PropertyGraph("g")
        graph.add_node("a", "File", {"path": "/tmp/x", "time": ts})
        graph.add_node("b", "Process", {"exe": "/bin/sh", "pid": pid})
        graph.add_edge("e", "a", "b", "Used", {"time": ts})
        return graph

    return build("100", "41"), build("200", "77")


@pytest.fixture
def diamond_graph() -> PropertyGraph:
    """A 4-node diamond with labelled edges, used for matching tests."""
    graph = PropertyGraph("d")
    graph.add_node("top", "A")
    graph.add_node("left", "B", {"side": "l"})
    graph.add_node("right", "B", {"side": "r"})
    graph.add_node("bottom", "C")
    graph.add_edge("e1", "top", "left", "x")
    graph.add_edge("e2", "top", "right", "x")
    graph.add_edge("e3", "left", "bottom", "y")
    graph.add_edge("e4", "right", "bottom", "y")
    return graph


def make_chain(length: int, label: str = "N", gid: str = "chain") -> PropertyGraph:
    graph = PropertyGraph(gid)
    for i in range(length):
        graph.add_node(f"n{i}", label)
    for i in range(length - 1):
        graph.add_edge(f"e{i}", f"n{i}", f"n{i+1}", "next")
    return graph


def stage_files(store: Path, stage: str):
    """``(path, wrapper)`` of every variant or run file in an artifact
    store that holds a ``stage`` section (``wrapper["payload"][stage]``):
    a background's variant file holds its generalization, a run file its
    foreground's generalization, the comparison and the result.
    Recording and transformation keep no section."""
    found = []
    for kind in ("variant", "run"):
        for path in sorted((store / kind).glob("*.json")):
            wrapper = json.loads(path.read_text())
            if stage in wrapper["payload"]:
                found.append((path, wrapper))
    assert found, f"no stored file holds a {stage!r} section"
    return found
