"""Pipeline configuration: defaults, flat ``key = value`` config files and
command-line overrides (flags win over the file, the file over defaults).

The fields of ``PipelineConfig`` are the one list of settings: config keys,
their value parsers and the CLI flags are all derived from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, get_type_hints

from . import resources
from .features import DEFAULT_FEATURE_COUNT
from .resources import Resources
from .svm import TrainConfig


@dataclass
class PipelineConfig:
    segmentation_lexicon: Path = resources.DEFAULT_PATHS["segmentation_lexicon"]
    terminology_lexicon: Path = resources.DEFAULT_PATHS["terminology_lexicon"]
    stopword_list: Path = resources.DEFAULT_PATHS["stopword_list"]
    ad_keywords: Path = resources.DEFAULT_PATHS["ad_keywords"]
    char_map: Path = resources.DEFAULT_PATHS["char_map"]
    tag_lexicon: Path = resources.DEFAULT_PATHS["tag_lexicon"]
    K: int = field(default=DEFAULT_FEATURE_COUNT, metadata={"help": "feature count"})
    C: float = field(default=TrainConfig.C, metadata={"help": "SVM cost"})
    wi: float = field(default=TrainConfig.wi, metadata={"help": "majority class cost factor"})
    gamma_min: float = field(default=0.5, metadata={"help": "consistency threshold"})
    k_folds: int = 5
    seed: int = TrainConfig.seed
    leaky_selection: bool = field(default=False, metadata={
        "help": "select features on the full corpus before splitting (comparison runs only)"})

    def __post_init__(self) -> None:
        if self.K < 1:
            raise ValueError("K must be at least 1")
        self.train_config()  # checks C and wi
        if not 0.5 <= self.gamma_min <= 1.0:
            raise ValueError("gamma_min must be in [0.5, 1.0]")
        if self.k_folds < 2:
            raise ValueError("k_folds must be at least 2")

    def train_config(self) -> TrainConfig:
        return TrainConfig(C=self.C, wi=self.wi, seed=self.seed)

    def load_resources(self) -> Resources:
        return resources.load_resources({key: getattr(self, key) for key in resources.DEFAULT_PATHS})


def parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


# config key -> parser of its value text, by the field's type
KEY_PARSERS: dict[str, Callable[[str], object]] = {
    key: {Path: Path, int: int, float: float, bool: parse_bool}[hint]
    for key, hint in get_type_hints(PipelineConfig).items()
}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read a flat ``key = value`` file; # starts a comment line.  Each key
    may appear once."""
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in resources._data_rows(path):
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KEY_PARSERS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ValueError(
                f"{path}:{lineno}: config key {key!r} already set on line {first_line[key]}")
        first_line[key] = lineno
        values[key] = value
    return values


def build_config(
    file_values: Mapping[str, str] | None = None,
    overrides: Mapping[str, object] | None = None,
) -> PipelineConfig:
    kwargs: dict[str, object] = {}
    for key, raw in (file_values or {}).items():
        if key not in KEY_PARSERS:
            raise ValueError(f"unknown config key {key!r}")
        try:
            kwargs[key] = KEY_PARSERS[key](raw)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from exc
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in KEY_PARSERS:
            raise ValueError(f"unknown config key {key!r}")
        kwargs[key] = value
    return PipelineConfig(**kwargs)  # type: ignore[arg-type]
