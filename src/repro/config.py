"""Tool profiles and ``config.ini`` support (paper appendix A.4).

ProvMark configures each supported tool through a profile in
``config/config.ini``::

    [spg]
    stage1tool = spade
    stage2handler = dot
    filtergraphs = false
    trials = 2

``stage1tool`` selects the recording module, ``stage2handler`` the
transformation handler, and ``filtergraphs`` the incomplete-graph filter
(default false for SPADE and OPUS, true for CamFlow).  The short profile
names match the paper's CLI: ``spg`` (SPADE+Graphviz), ``spn``
(SPADE+Neo4j), ``opu`` (OPUS), ``cam`` (CamFlow).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

from repro.capture import CaptureSystem
from repro.capture.registry import UnknownToolError, get_backend
from repro.capture.spade import SpadeConfig
from repro.core.pipeline import PipelineConfig, ProvMark


class ProfileError(Exception):
    """Raised for unknown profiles or malformed configuration files."""


@dataclass(frozen=True)
class ToolProfile:
    """One profile: which recorder, which transformer, which knobs."""

    name: str
    stage1tool: str
    stage2handler: str
    filtergraphs: bool
    trials: int

    def make_capture(self) -> CaptureSystem:
        try:
            backend = get_backend(self.stage1tool)
        except UnknownToolError as exc:
            raise ProfileError(str(exc)) from None
        if self.stage1tool == "spade":
            # SPADE's storage module is selectable (dot vs. neo4j).
            return backend.make(SpadeConfig(storage=self.stage2handler))
        expected = backend.cls.output_format
        if self.stage2handler != expected:
            raise ProfileError(
                f"{self.stage1tool} only supports the {expected} handler"
            )
        return backend.make()

    def make_provmark(self, seed: Optional[int] = None, engine: str = "native") -> ProvMark:
        return ProvMark(
            capture=self.make_capture(),
            config=PipelineConfig(
                tool=self.stage1tool,
                trials=self.trials,
                filtergraphs=self.filtergraphs,
                seed=seed,
                engine=engine,
            ),
        )


#: The paper's four stock profiles.
DEFAULT_PROFILES: Dict[str, ToolProfile] = {
    "spg": ToolProfile("spg", "spade", "dot", filtergraphs=False, trials=2),
    "spn": ToolProfile("spn", "spade", "neo4j", filtergraphs=False, trials=2),
    "opu": ToolProfile("opu", "opus", "neo4j", filtergraphs=False, trials=2),
    "cam": ToolProfile("cam", "camflow", "provjson", filtergraphs=True, trials=5),
}


def default_config_ini() -> str:
    """Render the stock profiles as a config.ini document."""
    parser = configparser.ConfigParser()
    for name, profile in DEFAULT_PROFILES.items():
        parser[name] = {
            "stage1tool": profile.stage1tool,
            "stage2handler": profile.stage2handler,
            "filtergraphs": str(profile.filtergraphs).lower(),
            "trials": str(profile.trials),
        }
    import io
    buffer = io.StringIO()
    parser.write(buffer)
    return buffer.getvalue()


def load_profiles(path: Union[str, Path]) -> Dict[str, ToolProfile]:
    """Parse a config.ini into tool profiles."""
    parser = configparser.ConfigParser()
    read = parser.read(str(path))
    if not read:
        raise ProfileError(f"cannot read config file {path}")
    profiles: Dict[str, ToolProfile] = {}
    for section in parser.sections():
        body = parser[section]
        try:
            profiles[section] = ToolProfile(
                name=section,
                stage1tool=body["stage1tool"],
                stage2handler=body["stage2handler"],
                filtergraphs=body.getboolean("filtergraphs", fallback=False),
                trials=body.getint("trials", fallback=2),
            )
        except (KeyError, ValueError) as exc:
            raise ProfileError(f"profile [{section}]: {exc}") from exc
    return profiles


def get_profile(
    name: str, config_path: Optional[Union[str, Path]] = None
) -> ToolProfile:
    """Look a profile up by name, optionally from a config.ini file."""
    profiles = (
        load_profiles(config_path) if config_path else DEFAULT_PROFILES
    )
    try:
        return profiles[name]
    except KeyError:
        raise ProfileError(
            f"unknown profile {name!r}; available: {sorted(profiles)}"
        ) from None
