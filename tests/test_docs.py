"""README's configuration table is the settings contract: one row per
settable ``RunConfig`` field, each with the interval its range table holds."""

from dataclasses import fields
from pathlib import Path

from tubestream.config import ENV_PATHS, RunConfig

README = Path(__file__).parents[1] / "README.md"


def config_table() -> dict[str, list[str]]:
    """The rows of README's table whose header starts ``| field``, keyed by field."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| field "))
    header = [cell.strip() for cell in lines[start].strip("|").split("|")]
    assert header == ["field", "default", "valid range", "meaning"]
    rows = {}
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        key, *cells = (cell.strip() for cell in line.strip("|").split("|"))
        rows[key.strip("`")] = cells
    return rows


def test_rows_are_the_settable_fields_in_order():
    settable = [f.name for f in fields(RunConfig) if f.name not in ENV_PATHS]
    assert list(config_table()) == settable


def test_valid_range_cells_are_the_range_tables():
    ranges = {key: cells[1] for key, cells in config_table().items()}
    assert ranges == RunConfig.RANGES
