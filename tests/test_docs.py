"""README's configuration table is the settings contract: one row per
settable ``RunConfig`` field, each with the interval its range table holds.
README's "Library use" block runs as written, and its Layout block names
every module of the package."""

from dataclasses import fields
from pathlib import Path

from tubestream.config import ENV_PATHS, RunConfig
from tubestream.synthetic import ScenarioSpec, TrackSpec, generate, oracle_link
from tubestream.tubes import FinalTube

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


def python_block(section: str) -> str:
    """The first python code block under README's ``## {section}`` heading."""
    text = README.read_text(encoding="utf-8")
    after = text[text.index(f"\n## {section}\n") :]
    start = after.index("```python\n") + len("```python\n")
    return after[start : after.index("```", start)]


def test_library_use_block_runs(capsys):
    spec = ScenarioSpec(
        n_frames=40,
        n_classes=2,
        tracks=(
            TrackSpec(0, 5, 20, (0.1, 0.1, 0.4, 0.5), (0.2, 0.15, 0.5, 0.55)),
            TrackSpec(1, 12, 34, (0.5, 0.4, 0.8, 0.9), (0.45, 0.35, 0.75, 0.85)),
        ),
        seed=3,
        video_id="v1",
    )
    detections, ground_truth = generate(spec)
    stream = [(t, detections.boxes_at(t)) for t in detections.ordered_frames()]
    names = {"stream": stream, "ground_truth_tubes": ground_truth}
    exec(python_block("Library use"), names)
    tubes = names["tubes"]
    assert tubes and all(isinstance(tube, FinalTube) for tube in tubes)
    assert tubes == oracle_link(detections, 2, names["linker"].config)[0]
    assert capsys.readouterr().out == names["report"].table() + "\n"
    assert names["report"].v_map[0.1] == 1.0


def test_layout_names_every_module_once():
    text = README.read_text(encoding="utf-8")
    after = text[text.index("\n## Layout\n") :]
    start = after.index("```\n") + len("```\n")
    block = after[start : after.index("```", start)]
    named = [line.split()[0] for line in block.splitlines() if line.startswith("  ") and not line[2].isspace()]
    modules = sorted(p.name for p in (README.parent / "src" / "tubestream").glob("*.py") if p.name != "__init__.py")
    assert sorted(name for name in named if name.endswith(".py")) == modules
