#!/usr/bin/env python3
"""Use case: suspicious-activity patterns (paper §3.1, Dora).

Dora, a security researcher, wants provenance-graph patterns indicative
of an attack.  She scripts a privilege-escalation scenario — a process
that gains root and reads /etc/shadow — marks the escalation step as the
*target activity*, and uses ProvMark to extract exactly the subgraph the
escalation contributes under CamFlow.

The resulting pattern (new task version informed by the old one, plus a
read of a sensitive inode) is what she would feed a detection engine.
"""

from repro import PipelineConfig, ProvMark
from repro.graph.dot import graph_to_dot
from repro.graph.stats import summarize
from repro.suite.program import Op, Program, create_file


def escalation_scenario() -> Program:
    """Setuid binary behaviour: drop to user, escalate back, read secrets.

    Background: normal user activity (open/read of the user's own file).
    Target: the escalation plus the sensitive read.
    """
    return Program(
        name="priv_escalation",
        run_as_uid=0, run_as_gid=0,  # setuid-root binary
        ops=(
            # normal-looking activity
            Op("open", ("notes.txt", "O_RDWR"), result="fd"),
            Op("read", ("$fd", 64)),
            # the escalation step + trophy access (the target activity)
            Op("setuid", (0,), target=True),
            Op("open", ("/etc/shadow", "O_RDONLY"), result="secret", target=True),
            Op("read", ("$secret", 64), target=True),
        ),
        setup=(create_file("notes.txt"),),
    )


def main() -> None:
    program = escalation_scenario()
    # An ad-hoc Program goes straight to the pipeline driver; the
    # declarative API (registered benchmark names) does not cover it.
    provmark = ProvMark(config=PipelineConfig(tool="camflow", seed=31))
    result = provmark.run_benchmark(program)
    graph = result.target_graph
    print("Privilege-escalation pattern extracted by ProvMark (CamFlow):")
    print(f"  {summarize(graph).describe()}\n")
    print(graph_to_dot(graph, name="escalation_pattern"))

    sensitive_reads = [
        edge for edge in graph.edges()
        if edge.label == "used"
    ]
    task_nodes = [n for n in graph.nodes() if n.label == "task"]
    path_nodes = [
        n for n in graph.nodes() if n.props.get("cf:pathname") == "/etc/shadow"
    ]
    print("Pattern ingredients Dora's detector would match on:")
    print(f"  task version nodes : {len(task_nodes)}")
    print(f"  used (read) edges  : {len(sensitive_reads)}")
    print(f"  /etc/shadow path   : {len(path_nodes)} node(s)")
    assert path_nodes, "escalation pattern must expose the sensitive path"


if __name__ == "__main__":
    main()
