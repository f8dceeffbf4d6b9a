"""Byte-identity pins for the recording stage.

Each digest below hashes everything the recording stage stores for one
benchmark under one tool at seed 5: every trial's seed, raw capture
output and virtual recording time (``RecordingSession.to_payload()``).
CamFlow's raw PROV-JSON is pinned by content, not layout: each trial's
document is re-serialized with ``json.dumps(json.loads(raw),
sort_keys=True)`` before hashing, so a whitespace-only change to the
encoder keeps its pin while any change to a node, an edge, a property or
an id breaks it.  A pin may only change together with a deliberate,
documented change to what a capture tool records.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.capture.registry import make_capture, tool_profile
from repro.core.recording import Recorder
from repro.suite.registry import TABLE2_ORDER, get_benchmark

SEED = 5
PINNED_BENCHMARKS = TABLE2_ORDER + ("scale32",)


def recording_digest(tool: str, name: str) -> str:
    """sha256 prefix of one benchmark's recording-stage payload."""
    capture = make_capture(tool)
    recorder = Recorder(capture, trials=tool_profile(tool).trials, seed=SEED)
    payload = recorder.record(get_benchmark(name)).to_payload()
    if capture.output_format == "provjson":
        for trial in payload["foreground"] + payload["background"]:
            raw = trial["raw"]
            raw["text"] = json.dumps(json.loads(raw["text"]), sort_keys=True)
    encoded = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()[:16]


PINS = {
    "camflow": {
        "close": "f2f63cca0ddd1cee",
        "creat": "aadb8c224d072c66",
        "dup": "f2f63cca0ddd1cee",
        "dup2": "f2f63cca0ddd1cee",
        "dup3": "f2f63cca0ddd1cee",
        "link": "1d61f30c70f88b74",
        "linkat": "1d61f30c70f88b74",
        "symlink": "576e8194121f2b13",
        "symlinkat": "576e8194121f2b13",
        "mknod": "bd64828de0fa0006",
        "mknodat": "bd64828de0fa0006",
        "open": "b0c413752ae68d91",
        "openat": "b0c413752ae68d91",
        "read": "e2a3afd444656fe6",
        "pread": "e2a3afd444656fe6",
        "rename": "f0e8644f972d9b56",
        "renameat": "f0e8644f972d9b56",
        "truncate": "747a27806d1908a5",
        "ftruncate": "95024a9ff18fffe7",
        "unlink": "1291c9df40ab57fa",
        "unlinkat": "1291c9df40ab57fa",
        "write": "33bffcefb1f5fa30",
        "pwrite": "33bffcefb1f5fa30",
        "clone": "4aac2a84e147b02a",
        "execve": "57b83b40d5c80555",
        "exit": "bd64828de0fa0006",
        "fork": "4aac2a84e147b02a",
        "kill": "b7f71f1782c8c37c",
        "vfork": "4aac2a84e147b02a",
        "chmod": "88f09428d6b01348",
        "fchmod": "54e54a84bacfb713",
        "fchmodat": "88f09428d6b01348",
        "chown": "88f09428d6b01348",
        "fchown": "54e54a84bacfb713",
        "fchownat": "88f09428d6b01348",
        "setgid": "c707ac275a9d91e3",
        "setregid": "c707ac275a9d91e3",
        "setresgid": "c707ac275a9d91e3",
        "setuid": "c707ac275a9d91e3",
        "setreuid": "c707ac275a9d91e3",
        "setresuid": "c707ac275a9d91e3",
        "pipe": "bd64828de0fa0006",
        "pipe2": "bd64828de0fa0006",
        "tee": "99bf5099fefc3d37",
        "scale32": "11e21f9226039d7b",
    },
    "opus": {
        "close": "f9df0d2c00746754",
        "creat": "9ca411e7769a95a8",
        "dup": "f256de7bf1dcac8d",
        "dup2": "91690d26815c78e5",
        "dup3": "cd46f031b714df83",
        "link": "db08f654d1f92063",
        "linkat": "bafa65497bc98c58",
        "symlink": "df6d5dc63685a832",
        "symlinkat": "9e735ea69734ccd0",
        "mknod": "291a6b8a1cc5ce79",
        "mknodat": "ec50d1f433c291e4",
        "open": "2a15c755e19e2c5a",
        "openat": "68daa971a4b842f2",
        "read": "b77e60db9dbfade2",
        "pread": "b77e60db9dbfade2",
        "rename": "99f41aa1d245348c",
        "renameat": "efabdd10e13adfb6",
        "truncate": "def3d03b3b7fbffe",
        "ftruncate": "5ea15192a1de7216",
        "unlink": "518e9769612f15a1",
        "unlinkat": "c4d22172a3c3c4c2",
        "write": "b77e60db9dbfade2",
        "pwrite": "b77e60db9dbfade2",
        "clone": "ec50d1f433c291e4",
        "execve": "2d2df8bdb815d83c",
        "exit": "ec50d1f433c291e4",
        "fork": "7f26e06dc78f85a2",
        "kill": "d9d256937c9dd68a",
        "vfork": "88a2972c1595fe88",
        "chmod": "56c4194a7c780b0e",
        "fchmod": "b77e60db9dbfade2",
        "fchmodat": "c93564ed4629673b",
        "chown": "7acc5afa1e74901a",
        "fchown": "b77e60db9dbfade2",
        "fchownat": "258822fdc45f1376",
        "setgid": "b88c01b9f95bc3af",
        "setregid": "b0908d080736a4db",
        "setresgid": "ec50d1f433c291e4",
        "setuid": "2e8eb0c969376688",
        "setreuid": "3365860f67f410ae",
        "setresuid": "ec50d1f433c291e4",
        "pipe": "8cf3dc9d8cbc9431",
        "pipe2": "0657bb3317fddbd8",
        "tee": "db1da46eeec9f331",
        "scale32": "ec4aa2bd301d492f",
    },
    "spade": {
        "close": "df0728868ba22225",
        "creat": "ffdfbf8bb139e48b",
        "dup": "4949c9ad09dbeab2",
        "dup2": "4949c9ad09dbeab2",
        "dup3": "4949c9ad09dbeab2",
        "link": "a05a252d7bf4cdf3",
        "linkat": "9e7b749ed6e93f7d",
        "symlink": "e4f230c4ff20ec9c",
        "symlinkat": "5c2c05d860effb0f",
        "mknod": "39bd75284d7d7a5b",
        "mknodat": "39bd75284d7d7a5b",
        "open": "84a5e2bbfb5a4f07",
        "openat": "84a5e2bbfb5a4f07",
        "read": "847bf1308c6e9bf0",
        "pread": "4dfa012f288377e1",
        "rename": "e1b26bb79b160c7a",
        "renameat": "3e97235f627e8494",
        "truncate": "089d84b556b5af50",
        "ftruncate": "0f4ce9fcfaf56e7e",
        "unlink": "d89c5e03df127265",
        "unlinkat": "e96ad0690148b100",
        "write": "82d13ef9fa72e291",
        "pwrite": "4970ae5febaed7a2",
        "clone": "a521a54339dc66b4",
        "execve": "ca71fe546a90745a",
        "exit": "39bd75284d7d7a5b",
        "fork": "95f6707786053bfe",
        "kill": "5c7bd0f48c0cc4ef",
        "vfork": "9324ac9b0604409a",
        "chmod": "b7bc8561baa69858",
        "fchmod": "446dfa10c0264d05",
        "fchmodat": "d959e687190e767a",
        "chown": "3c5d257baec96d62",
        "fchown": "4949c9ad09dbeab2",
        "fchownat": "3c5d257baec96d62",
        "setgid": "1d2efb005dc5c080",
        "setregid": "8cd97e8c39f04a7a",
        "setresgid": "39bd75284d7d7a5b",
        "setuid": "961b329ebf42347d",
        "setreuid": "60e9f5b77892be94",
        "setresuid": "a9c7f7de3e7d4952",
        "pipe": "39bd75284d7d7a5b",
        "pipe2": "39bd75284d7d7a5b",
        "tee": "39bd75284d7d7a5b",
        "scale32": "1efbfbede6c6f609",
    },
    "spade-camflow": {
        "close": "44dbeb0c55d9684a",
        "creat": "9d81c18b95cc6936",
        "dup": "44dbeb0c55d9684a",
        "dup2": "44dbeb0c55d9684a",
        "dup3": "44dbeb0c55d9684a",
        "link": "92bf1bb0efd58e13",
        "linkat": "92bf1bb0efd58e13",
        "symlink": "7714f7982a370dba",
        "symlinkat": "7714f7982a370dba",
        "mknod": "51a1b3d3df2ff8cb",
        "mknodat": "51a1b3d3df2ff8cb",
        "open": "3ca70104e3c99132",
        "openat": "3ca70104e3c99132",
        "read": "863dcb7d61aacf18",
        "pread": "863dcb7d61aacf18",
        "rename": "3cfb78e72a85d72c",
        "renameat": "3cfb78e72a85d72c",
        "truncate": "056abd72c3bc85a7",
        "ftruncate": "dc078c63beabcd95",
        "unlink": "5c3d4a240cb93139",
        "unlinkat": "5c3d4a240cb93139",
        "write": "aa9ebf80d313ed94",
        "pwrite": "aa9ebf80d313ed94",
        "clone": "1fa1c03b7c9e2945",
        "execve": "3c8af14037b924ba",
        "exit": "51a1b3d3df2ff8cb",
        "fork": "1fa1c03b7c9e2945",
        "kill": "a039a5dc1980ab18",
        "vfork": "1fa1c03b7c9e2945",
        "chmod": "47d430d28e4d3033",
        "fchmod": "a4d7113838ae486f",
        "fchmodat": "47d430d28e4d3033",
        "chown": "47d430d28e4d3033",
        "fchown": "a4d7113838ae486f",
        "fchownat": "47d430d28e4d3033",
        "setgid": "090f4b3b77d22c42",
        "setregid": "090f4b3b77d22c42",
        "setresgid": "090f4b3b77d22c42",
        "setuid": "bec8489966e415ec",
        "setreuid": "bec8489966e415ec",
        "setresuid": "bec8489966e415ec",
        "pipe": "51a1b3d3df2ff8cb",
        "pipe2": "51a1b3d3df2ff8cb",
        "tee": "e5eb3834e7249e9b",
        "scale32": "d047b3e43facaa96",
    },
}


@pytest.mark.parametrize("tool", sorted(PINS))
def test_recording_is_byte_identical(tool):
    digests = {name: recording_digest(tool, name) for name in PINNED_BENCHMARKS}
    assert digests == PINS[tool]
