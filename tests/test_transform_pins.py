"""Byte pins for what the transformation stage builds.

Each digest hashes one trial graph as the transformation stage builds
it from one trial's native output (``transform(raw, format,
gid="fg0")`` ...): its ``graph_to_payload`` (the gid, the nodes and then
the edges in insertion order, each with its label and its properties in
their order) and each node's out and in edge-id lists, whose order the
solver's search reads.  The pins cover every Table 2 and extended
builtin and scale32, under SPADE (DOT), OPUS (a Neo4jSim store),
CamFlow (PROV-JSON) and SPADE-CamFlow (DOT) at seed 5: per benchmark,
the foreground trials' digests, then the background trials'.  A pin may
only change together with a deliberate, documented change to what a
capture records or to how its output becomes a graph.

Malformed output raises the error type it always has: ``DotError`` and
``ProvJsonError`` for text the parser cannot read, and ``GraphError``
for a duplicate identifier or an edge whose endpoint is no node.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.capture.registry import make_capture, tool_profile
from repro.core.recording import Recorder
from repro.core.transform import transform
from repro.graph.dot import DotError, dot_to_graph
from repro.graph.model import GraphError
from repro.graph.provjson import ProvJsonError, provjson_to_graph
from repro.storage.artifacts import graph_to_payload
from repro.storage.neo4jsim import Neo4jSim
from repro.suite.extended import EXTENDED_BENCHMARKS
from repro.suite.registry import TABLE2_ORDER, get_benchmark

SEED = 5
BENCHMARKS = TABLE2_ORDER + tuple(EXTENDED_BENCHMARKS) + ("scale32",)


def graph_digest(graph) -> str:
    """sha256 prefix of one graph's payload and adjacency lists."""
    payload = graph_to_payload(graph)
    payload["adjacency"] = [
        [
            [edge.id for edge in graph.out_edges(node.id)],
            [edge.id for edge in graph.in_edges(node.id)],
        ]
        for node in graph.nodes()
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:8]


def trial_digests(tool: str, name: str) -> str:
    """The digests of one benchmark's trial graphs, foreground first."""
    capture = make_capture(tool)
    recorder = Recorder(capture, trials=tool_profile(tool).trials, seed=SEED)
    session = recorder.record(get_benchmark(name))
    digests = []
    for variant, trials in (
        ("fg", session.foreground_trials), ("bg", session.background_trials),
    ):
        for index, trial in enumerate(trials):
            graph = transform(
                trial.raw, capture.output_format, gid=f"{variant}{index}"
            )
            digests.append(graph_digest(graph))
    return " ".join(digests)


#: tool -> benchmark -> the trial graphs' digests, foreground first
PINS = {
    "camflow": {
        "close": (
            "708ef22c c915725b 77ef096d c42ef0fe 5e995d5e "
            "d423e74f 8bc7e39a 73773da2 5d055e5f dbd7ddd3"
        ),
        "creat": (
            "c0061964 2c8ab6c9 9967cfba ceae0a59 1a3b1776 "
            "75943cd4 172e21ff 281d42be 5d2f0016 ed7cce06"
        ),
        "dup": (
            "708ef22c c915725b 77ef096d c42ef0fe 5e995d5e "
            "d423e74f 8bc7e39a 73773da2 5d055e5f dbd7ddd3"
        ),
        "dup2": (
            "708ef22c c915725b 77ef096d c42ef0fe 5e995d5e "
            "d423e74f 8bc7e39a 73773da2 5d055e5f dbd7ddd3"
        ),
        "dup3": (
            "708ef22c c915725b 77ef096d c42ef0fe 5e995d5e "
            "d423e74f 8bc7e39a 73773da2 5d055e5f dbd7ddd3"
        ),
        "link": (
            "f29b29d8 893bd33b 81a08656 2c815fc2 cd179451 "
            "ba15e205 cd723a75 0cebd64d 105555e7 c76d0514"
        ),
        "linkat": (
            "f29b29d8 893bd33b 81a08656 2c815fc2 cd179451 "
            "ba15e205 cd723a75 0cebd64d 105555e7 c76d0514"
        ),
        "symlink": (
            "09e74a2e e7129984 4e9ec399 aa6311cf 530145eb "
            "ba15e205 cd723a75 0cebd64d 105555e7 c76d0514"
        ),
        "symlinkat": (
            "09e74a2e e7129984 4e9ec399 aa6311cf 530145eb "
            "ba15e205 cd723a75 0cebd64d 105555e7 c76d0514"
        ),
        "mknod": (
            "ae547e1c 6197c433 4eedd57b b758547d 5efbc85f "
            "75943cd4 172e21ff 281d42be 5d2f0016 ed7cce06"
        ),
        "mknodat": (
            "ae547e1c 6197c433 4eedd57b b758547d 5efbc85f "
            "75943cd4 172e21ff 281d42be 5d2f0016 ed7cce06"
        ),
        "open": (
            "708ef22c c915725b 77ef096d c42ef0fe 5e995d5e "
            "ba15e205 cd723a75 0cebd64d 105555e7 c76d0514"
        ),
        "openat": (
            "708ef22c c915725b 77ef096d c42ef0fe 5e995d5e "
            "ba15e205 cd723a75 0cebd64d 105555e7 c76d0514"
        ),
        "read": (
            "9fc703f7 155a05d1 8a776b94 40302977 3008778d "
            "d423e74f 8bc7e39a 73773da2 5d055e5f dbd7ddd3"
        ),
        "pread": (
            "9fc703f7 155a05d1 8a776b94 40302977 3008778d "
            "d423e74f 8bc7e39a 73773da2 5d055e5f dbd7ddd3"
        ),
        "rename": (
            "1bd8bd6e 9ad21648 9cf557c1 4aab3478 639bf0a6 "
            "ba15e205 cd723a75 0cebd64d 105555e7 c76d0514"
        ),
        "renameat": (
            "1bd8bd6e 9ad21648 9cf557c1 4aab3478 639bf0a6 "
            "ba15e205 cd723a75 0cebd64d 105555e7 c76d0514"
        ),
        "truncate": (
            "8665f055 65de061e 195e59d0 4806f878 72652b10 "
            "ba15e205 cd723a75 0cebd64d 105555e7 c76d0514"
        ),
        "ftruncate": (
            "f28749c3 6e7db32d 07bf992f 46e9977d e1ec60b4 "
            "d423e74f 8bc7e39a 73773da2 5d055e5f dbd7ddd3"
        ),
        "unlink": (
            "8d602c7f 4894bda1 280f1912 26bb461f 772f0a21 "
            "ba15e205 cd723a75 0cebd64d 105555e7 c76d0514"
        ),
        "unlinkat": (
            "8d602c7f 4894bda1 280f1912 26bb461f 772f0a21 "
            "ba15e205 cd723a75 0cebd64d 105555e7 c76d0514"
        ),
        "write": (
            "73a76f32 c29cbc3b f06a29ae ffcbc23f 3309caf6 "
            "d423e74f 8bc7e39a 73773da2 5d055e5f dbd7ddd3"
        ),
        "pwrite": (
            "73a76f32 c29cbc3b f06a29ae ffcbc23f 3309caf6 "
            "d423e74f 8bc7e39a 73773da2 5d055e5f dbd7ddd3"
        ),
        "clone": (
            "e1f87d38 3b175f77 bde24bf9 549a21fb 63696af5 "
            "75943cd4 172e21ff 281d42be 5d2f0016 ed7cce06"
        ),
        "execve": (
            "6b395024 c361d82a c4eaa877 ebb2ba8c 7920876c "
            "75943cd4 172e21ff 281d42be 5d2f0016 ed7cce06"
        ),
        "exit": (
            "ae547e1c 6197c433 4eedd57b b758547d 5efbc85f "
            "75943cd4 172e21ff 281d42be 5d2f0016 ed7cce06"
        ),
        "fork": (
            "e1f87d38 3b175f77 bde24bf9 549a21fb 63696af5 "
            "75943cd4 172e21ff 281d42be 5d2f0016 ed7cce06"
        ),
        "kill": (
            "e1f87d38 3b175f77 bde24bf9 549a21fb 63696af5 "
            "a9b2d4f2 b71e4681 d44bf712 ee543911 aceb57a4"
        ),
        "vfork": (
            "e1f87d38 3b175f77 bde24bf9 549a21fb 63696af5 "
            "75943cd4 172e21ff 281d42be 5d2f0016 ed7cce06"
        ),
        "chmod": (
            "f9b49d1d 694d3117 a2f28878 50ad0ab5 8a908fcd "
            "ba15e205 cd723a75 0cebd64d 105555e7 c76d0514"
        ),
        "fchmod": (
            "7347eea7 48246471 9bce9d12 06909ce5 a8f60f2c "
            "d423e74f 8bc7e39a 73773da2 5d055e5f dbd7ddd3"
        ),
        "fchmodat": (
            "f9b49d1d 694d3117 a2f28878 50ad0ab5 8a908fcd "
            "ba15e205 cd723a75 0cebd64d 105555e7 c76d0514"
        ),
        "chown": (
            "f9b49d1d 694d3117 a2f28878 50ad0ab5 8a908fcd "
            "ba15e205 cd723a75 0cebd64d 105555e7 c76d0514"
        ),
        "fchown": (
            "7347eea7 48246471 9bce9d12 06909ce5 a8f60f2c "
            "d423e74f 8bc7e39a 73773da2 5d055e5f dbd7ddd3"
        ),
        "fchownat": (
            "f9b49d1d 694d3117 a2f28878 50ad0ab5 8a908fcd "
            "ba15e205 cd723a75 0cebd64d 105555e7 c76d0514"
        ),
        "setgid": (
            "56cdb38d 94e8ef1f 35e9e22b cf7fbab5 2e7239b6 "
            "75943cd4 172e21ff 281d42be 5d2f0016 ed7cce06"
        ),
        "setregid": (
            "56cdb38d 94e8ef1f 35e9e22b cf7fbab5 2e7239b6 "
            "75943cd4 172e21ff 281d42be 5d2f0016 ed7cce06"
        ),
        "setresgid": (
            "56cdb38d 94e8ef1f 35e9e22b cf7fbab5 2e7239b6 "
            "75943cd4 172e21ff 281d42be 5d2f0016 ed7cce06"
        ),
        "setuid": (
            "56cdb38d 94e8ef1f 35e9e22b cf7fbab5 2e7239b6 "
            "75943cd4 172e21ff 281d42be 5d2f0016 ed7cce06"
        ),
        "setreuid": (
            "56cdb38d 94e8ef1f 35e9e22b cf7fbab5 2e7239b6 "
            "75943cd4 172e21ff 281d42be 5d2f0016 ed7cce06"
        ),
        "setresuid": (
            "56cdb38d 94e8ef1f 35e9e22b cf7fbab5 2e7239b6 "
            "75943cd4 172e21ff 281d42be 5d2f0016 ed7cce06"
        ),
        "pipe": (
            "ae547e1c 6197c433 4eedd57b b758547d 5efbc85f "
            "75943cd4 172e21ff 281d42be 5d2f0016 ed7cce06"
        ),
        "pipe2": (
            "ae547e1c 6197c433 4eedd57b b758547d 5efbc85f "
            "75943cd4 172e21ff 281d42be 5d2f0016 ed7cce06"
        ),
        "tee": (
            "90fa5950 8b9edea8 5a260cbe be577680 85bba65a "
            "8e31e0f0 8676db2a c4d6146c a96074a9 370515a7"
        ),
        "socketpair": (
            "feac769b 07915eec 90b97289 0c853cb0 263d0efe "
            "75943cd4 172e21ff 281d42be 5d2f0016 ed7cce06"
        ),
        "send": (
            "2c4b3082 a6796eba da47920f cfb2906d dc47d195 "
            "0385c22f fbaf3974 f8e0cc28 d9925f22 2d97de86"
        ),
        "recv": (
            "730eff14 2684ed31 35ff2466 6a1034c1 8596ee60 "
            "67f365f2 0495b3e8 4a6a5a31 c2033d6f 1edc330c"
        ),
        "seq_copy": (
            "23213745 34f86653 02f11653 28c52867 8442dbc5 "
            "81329ffb afc3bdad 7d8dcbbb 72c8ac54 2dd2cd7e"
        ),
        "seq_lockdown": (
            "c221ec25 9543685f a7fd4c0a 8d2139eb 7defd044 "
            "5a063a2e 2dd6f20d 53bb70e9 a9e2829f 1263774c"
        ),
        "scale32": (
            "4402159b f1171911 a91fe634 3a8fbd06 b615b311 "
            "75943cd4 172e21ff 281d42be 5d2f0016 ed7cce06"
        ),
    },
    "opus": {
        "close": "43588316 11925ff8 5e4843bd d75d45d6",
        "creat": "236e2b90 1df11b5a 413af87d 33a75764",
        "dup": "8d0b0c55 207c6320 5e4843bd d75d45d6",
        "dup2": "9c1e79ba f2cc4ad5 5e4843bd d75d45d6",
        "dup3": "ef20893c ff8e7280 5e4843bd d75d45d6",
        "link": "987a69e9 f05e168c 88b7b938 209fc590",
        "linkat": "3d46117b 3c27d229 88b7b938 209fc590",
        "symlink": "b09be25a 388ee213 88b7b938 209fc590",
        "symlinkat": "7b46e107 a08c0dbf 88b7b938 209fc590",
        "mknod": "5ade8fd9 0f4c9dde 413af87d 33a75764",
        "mknodat": "f27be2bf c607f37a 413af87d 33a75764",
        "open": "ad4b4009 4d30a6ff 88b7b938 209fc590",
        "openat": "5a2285fa aa496bbe 88b7b938 209fc590",
        "read": "ad4b4009 4d30a6ff 5e4843bd d75d45d6",
        "pread": "ad4b4009 4d30a6ff 5e4843bd d75d45d6",
        "rename": "1c841f4f 707cdf83 88b7b938 209fc590",
        "renameat": "598abc90 24413dd3 88b7b938 209fc590",
        "truncate": "2f7e436a f1ca3435 88b7b938 209fc590",
        "ftruncate": "c5305466 78b76ff8 5e4843bd d75d45d6",
        "unlink": "86c63e55 f35d0177 88b7b938 209fc590",
        "unlinkat": "7f5c0586 65db9f9e 88b7b938 209fc590",
        "write": "ad4b4009 4d30a6ff 5e4843bd d75d45d6",
        "pwrite": "ad4b4009 4d30a6ff 5e4843bd d75d45d6",
        "clone": "f27be2bf c607f37a 413af87d 33a75764",
        "execve": "4c9bb6a6 8d315be0 413af87d 33a75764",
        "exit": "f27be2bf c607f37a 413af87d 33a75764",
        "fork": "c7537ae9 bb0563fd 413af87d 33a75764",
        "kill": "c7537ae9 bb0563fd 77b1dcfe 939e75a2",
        "vfork": "a991a9ec b393fc6e 413af87d 33a75764",
        "chmod": "6307d352 446cd5bb 88b7b938 209fc590",
        "fchmod": "ad4b4009 4d30a6ff 5e4843bd d75d45d6",
        "fchmodat": "aaed1107 5ccfc731 88b7b938 209fc590",
        "chown": "d8efea0e f9f020fe 88b7b938 209fc590",
        "fchown": "ad4b4009 4d30a6ff 5e4843bd d75d45d6",
        "fchownat": "8c40d7f6 9bbaead1 88b7b938 209fc590",
        "setgid": "657d9efa 99b95917 413af87d 33a75764",
        "setregid": "884082c6 ecb68f10 413af87d 33a75764",
        "setresgid": "f27be2bf c607f37a 413af87d 33a75764",
        "setuid": "b1511673 2433b5f9 413af87d 33a75764",
        "setreuid": "1e5128d9 99da6ca1 413af87d 33a75764",
        "setresuid": "f27be2bf c607f37a 413af87d 33a75764",
        "pipe": "fd9e2636 12e1a8b0 413af87d 33a75764",
        "pipe2": "df3beb83 e0ad9f25 413af87d 33a75764",
        "tee": "522621c9 8a91af57 0272e170 56ca3bfd",
        "socketpair": "f27be2bf c607f37a 413af87d 33a75764",
        "send": "f27be2bf c607f37a 413af87d 33a75764",
        "recv": "f27be2bf c607f37a 413af87d 33a75764",
        "seq_copy": "a3a1cc30 9cf63432 e5a89043 d101ddf9",
        "seq_lockdown": "8cac7b90 08967171 67da7f23 9e30172d",
        "scale32": "cf0efddd f8d7248b 413af87d 33a75764",
    },
    "spade": {
        "close": "e2fe63be 77f2019c 0cb0e40a fb8ea92f",
        "creat": "48c6f4d9 58894f86 90f023bd 3fc2ac0a",
        "dup": "6f5d1da7 d5c71066 0cb0e40a fb8ea92f",
        "dup2": "6f5d1da7 d5c71066 0cb0e40a fb8ea92f",
        "dup3": "6f5d1da7 d5c71066 0cb0e40a fb8ea92f",
        "link": "29a1b515 2dbfdbbb 0d3b2435 3a1a8c5e",
        "linkat": "8ce2b861 07973547 0d3b2435 3a1a8c5e",
        "symlink": "f837a33d 13e82585 0d3b2435 3a1a8c5e",
        "symlinkat": "a745635e 62d99caa 0d3b2435 3a1a8c5e",
        "mknod": "2097391b 3f2b0dc7 90f023bd 3fc2ac0a",
        "mknodat": "2097391b 3f2b0dc7 90f023bd 3fc2ac0a",
        "open": "6f5d1da7 d5c71066 0d3b2435 3a1a8c5e",
        "openat": "6f5d1da7 d5c71066 0d3b2435 3a1a8c5e",
        "read": "ba28f99b 1c9fdbc6 0cb0e40a fb8ea92f",
        "pread": "06ae3b79 90e084d9 0cb0e40a fb8ea92f",
        "rename": "a90b6cb6 7ff30163 0d3b2435 3a1a8c5e",
        "renameat": "5dd213af 9726ec2d 0d3b2435 3a1a8c5e",
        "truncate": "6c089754 5b74e0d5 0d3b2435 3a1a8c5e",
        "ftruncate": "133faa30 afa26bcf 0cb0e40a fb8ea92f",
        "unlink": "4da1536a d93208f4 0d3b2435 3a1a8c5e",
        "unlinkat": "e176ead7 83673565 0d3b2435 3a1a8c5e",
        "write": "04291365 d99df624 0cb0e40a fb8ea92f",
        "pwrite": "e013b078 0b02540e 0cb0e40a fb8ea92f",
        "clone": "d1fd0068 ad67f86d 90f023bd 3fc2ac0a",
        "execve": "a29a0341 3dc0c67a 90f023bd 3fc2ac0a",
        "exit": "2097391b 3f2b0dc7 90f023bd 3fc2ac0a",
        "fork": "9fbe03b2 f79b24af 90f023bd 3fc2ac0a",
        "kill": "9fbe03b2 f79b24af 219f2879 b06c7a07",
        "vfork": "199dccf0 6eb1917f 90f023bd 3fc2ac0a",
        "chmod": "51fdfdaa a3ff1c52 0d3b2435 3a1a8c5e",
        "fchmod": "f6df6571 3110fab8 0cb0e40a fb8ea92f",
        "fchmodat": "448d1e3a cb255157 0d3b2435 3a1a8c5e",
        "chown": "6019277e 304ca915 0d3b2435 3a1a8c5e",
        "fchown": "6f5d1da7 d5c71066 0cb0e40a fb8ea92f",
        "fchownat": "6019277e 304ca915 0d3b2435 3a1a8c5e",
        "setgid": "2114e40c 01b36925 90f023bd 3fc2ac0a",
        "setregid": "e8653ebc 12971fea 90f023bd 3fc2ac0a",
        "setresgid": "2097391b 3f2b0dc7 90f023bd 3fc2ac0a",
        "setuid": "4c65a79e c7b758cf 90f023bd 3fc2ac0a",
        "setreuid": "e5cb7c45 dbae44dd 90f023bd 3fc2ac0a",
        "setresuid": "e75bbf79 dfb22c0c 90f023bd 3fc2ac0a",
        "pipe": "2097391b 3f2b0dc7 90f023bd 3fc2ac0a",
        "pipe2": "2097391b 3f2b0dc7 90f023bd 3fc2ac0a",
        "tee": "2097391b 3f2b0dc7 90f023bd 3fc2ac0a",
        "socketpair": "2097391b 3f2b0dc7 90f023bd 3fc2ac0a",
        "send": "2097391b 3f2b0dc7 90f023bd 3fc2ac0a",
        "recv": "2097391b 3f2b0dc7 90f023bd 3fc2ac0a",
        "seq_copy": "8ec81812 9ea329b7 6a09e6e9 80c0c3b7",
        "seq_lockdown": "efc51655 43a39c2c 0a1f5393 63ab616a",
        "scale32": "c71e2627 851dc1ad 90f023bd 3fc2ac0a",
    },
    "spade-camflow": {
        "close": "0f6fde6a 537f5aa9 7d798b83 bdb60aa8",
        "creat": "591b67f6 1db6e0a4 6de9c615 07bbd3eb",
        "dup": "0f6fde6a 537f5aa9 7d798b83 bdb60aa8",
        "dup2": "0f6fde6a 537f5aa9 7d798b83 bdb60aa8",
        "dup3": "0f6fde6a 537f5aa9 7d798b83 bdb60aa8",
        "link": "f38963b6 676efc4e 456319d8 b6eafbb3",
        "linkat": "f38963b6 676efc4e 456319d8 b6eafbb3",
        "symlink": "6ec76821 3913fe2b 456319d8 b6eafbb3",
        "symlinkat": "6ec76821 3913fe2b 456319d8 b6eafbb3",
        "mknod": "5cacc7a3 8bd45cd7 6de9c615 07bbd3eb",
        "mknodat": "5cacc7a3 8bd45cd7 6de9c615 07bbd3eb",
        "open": "0f6fde6a 537f5aa9 456319d8 b6eafbb3",
        "openat": "0f6fde6a 537f5aa9 456319d8 b6eafbb3",
        "read": "ff75dc74 a2ad4283 7d798b83 bdb60aa8",
        "pread": "ff75dc74 a2ad4283 7d798b83 bdb60aa8",
        "rename": "bc3ed809 f7f41d8f 456319d8 b6eafbb3",
        "renameat": "bc3ed809 f7f41d8f 456319d8 b6eafbb3",
        "truncate": "ff4377b3 0bc4f0c5 456319d8 b6eafbb3",
        "ftruncate": "4beb44e7 ce00da62 7d798b83 bdb60aa8",
        "unlink": "0d9cdb6d f3c205be 456319d8 b6eafbb3",
        "unlinkat": "0d9cdb6d f3c205be 456319d8 b6eafbb3",
        "write": "b5469c04 fdb7b7ad 7d798b83 bdb60aa8",
        "pwrite": "b5469c04 fdb7b7ad 7d798b83 bdb60aa8",
        "clone": "d9d71fe7 5a5edabf 6de9c615 07bbd3eb",
        "execve": "13d3eb49 01b20cb9 6de9c615 07bbd3eb",
        "exit": "5cacc7a3 8bd45cd7 6de9c615 07bbd3eb",
        "fork": "d9d71fe7 5a5edabf 6de9c615 07bbd3eb",
        "kill": "d9d71fe7 5a5edabf 855f564d a3180c7f",
        "vfork": "d9d71fe7 5a5edabf 6de9c615 07bbd3eb",
        "chmod": "3df09655 87c3ef92 456319d8 b6eafbb3",
        "fchmod": "8844ec24 a78b4cab 7d798b83 bdb60aa8",
        "fchmodat": "3df09655 87c3ef92 456319d8 b6eafbb3",
        "chown": "3df09655 87c3ef92 456319d8 b6eafbb3",
        "fchown": "8844ec24 a78b4cab 7d798b83 bdb60aa8",
        "fchownat": "3df09655 87c3ef92 456319d8 b6eafbb3",
        "setgid": "cfd547b7 24e11804 6de9c615 07bbd3eb",
        "setregid": "cfd547b7 24e11804 6de9c615 07bbd3eb",
        "setresgid": "cfd547b7 24e11804 6de9c615 07bbd3eb",
        "setuid": "37161d17 dfa9c7e8 6de9c615 07bbd3eb",
        "setreuid": "37161d17 dfa9c7e8 6de9c615 07bbd3eb",
        "setresuid": "37161d17 dfa9c7e8 6de9c615 07bbd3eb",
        "pipe": "5cacc7a3 8bd45cd7 6de9c615 07bbd3eb",
        "pipe2": "5cacc7a3 8bd45cd7 6de9c615 07bbd3eb",
        "tee": "27b9adb6 b3236f45 3cdc68a6 8d8e3846",
        "socketpair": "47f119b0 66f712ed 6de9c615 07bbd3eb",
        "send": "a5040ea7 7767f4b5 bd6dcc6f f51ec216",
        "recv": "a6860add 54a090ad db48469d 938a8c54",
        "seq_copy": "a1acbe75 98e18ef7 4f75cfe8 ce27ad47",
        "seq_lockdown": "9c01cc7a b0a3eb7a db0c3d79 d06bde22",
        "scale32": "96b25c06 2443c3dd 6de9c615 07bbd3eb",
    },
}


@pytest.mark.parametrize("tool", sorted(PINS))
def test_transformation_is_byte_identical(tool):
    digests = {name: trial_digests(tool, name) for name in BENCHMARKS}
    assert digests == PINS[tool]


class TestMalformedOutput:
    def test_an_unparseable_dot_line_is_a_dot_error(self):
        with pytest.raises(DotError):
            dot_to_graph('digraph g {\n  "a" [label="type:Process"];\n  ??\n}')

    @pytest.mark.parametrize("statements", [
        ['"a" [label="type:Process"];', '"a" [label="type:Agent"];'],
        ['"a" [label="type:Process"];', '"a" -> "a" [id="a" label="type:Used"];'],
        ['"a" -> "b" [id="e" label="type:Used"];',
         '"b" -> "a" [id="e" label="type:Used"];'],
    ], ids=["node_twice", "edge_named_as_node", "edge_twice"])
    def test_a_duplicate_dot_id_is_a_graph_error(self, statements):
        with pytest.raises(GraphError):
            dot_to_graph("digraph g {\n" + "\n".join(statements) + "\n}\n")

    @pytest.mark.parametrize("text", [
        "{not json", "[1, 2]",
        json.dumps({"used": {"r": {"prov:activity": "a"}}}),
    ], ids=["invalid", "not_an_object", "missing_endpoint"])
    def test_unreadable_prov_json_is_a_prov_json_error(self, text):
        with pytest.raises(ProvJsonError):
            provjson_to_graph(text)

    @pytest.mark.parametrize("doc", [
        {"entity": {"x": {}}, "activity": {"x": {}}},
        {"entity": {"x": {}}, "used": {"x": {
            "prov:activity": "x", "prov:entity": "x"}}},
        {"used": {"r": {"prov:activity": "a", "prov:entity": "b"}},
         "wasGeneratedBy": {"r": {"prov:entity": "b", "prov:activity": "a"}}},
    ], ids=["node_twice", "relation_named_as_node", "relation_twice"])
    def test_a_duplicate_prov_json_id_is_a_graph_error(self, doc):
        with pytest.raises(GraphError):
            provjson_to_graph(json.dumps(doc))

    def test_a_duplicate_neo4j_node_is_a_graph_error(self):
        store = Neo4jSim()
        store.create_node(1, "Process", {"pid": "1"})
        store.create_node(1, "Process", {"pid": "2"})
        with pytest.raises(GraphError):
            transform(store, "neo4j")

    @pytest.mark.parametrize("start, end", [(9, 1), (1, 9)])
    def test_a_neo4j_relationship_to_no_node_is_a_graph_error(self, start, end):
        store = Neo4jSim()
        store.create_node(1, "Process", {"pid": "1"})
        store.create_relationship(2, start, end, "USED")
        with pytest.raises(GraphError):
            transform(store, "neo4j")
