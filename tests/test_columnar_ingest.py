"""The columnar readers against the row-by-row reference (row_reference.py).

Canonical text and dataset exports are built from cells that are mostly
valid and sometimes not, then mutated line by line: quotes, bare \\r and
\\r\\n line ends, blank and '#' lines, short and long rows, empty cells and
whitespace around cells. Each input is read with blocks of a few characters
as well as whole, so lines and \\r\\n pairs fall across block boundaries.
Both readers must give equal ParseResults (diagnostics, scenario ids, dt,
and every TrackArrays column bit for bit) and equal serialized text.
"""

import io
import math
import random
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import row_reference
from conflictmetrics import trajio
from conflictmetrics.trajio import serialize_canonical

GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
_COLUMNS = ("t_dms", "t", "x", "y", "v", "heading", "length", "width", "cos_h", "sin_h")


def assert_same_result(result, expected):
    assert result.issues == expected.issues
    assert [s.scenario_id for s in result.scenarios] == [s.scenario_id for s in expected.scenarios]
    for scenario, reference in zip(result.scenarios, expected.scenarios):
        assert scenario.dt == reference.dt
        assert list(scenario.agents) == list(reference.agents)
        for agent_id, track in scenario.agents.items():
            other = reference.agents[agent_id]
            assert track.agent_id == other.agent_id
            for name in _COLUMNS:
                a, b = getattr(track, name), getattr(other, name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (agent_id, name)
            assert track.agent_type.tolist() == other.agent_type.tolist()
    assert serialize_canonical(result.scenarios) == serialize_canonical(expected.scenarios)


def outcome(read):
    """read()'s result, or the type and text of what it raised."""
    try:
        return read()
    except Exception as exc:  # the reference may raise anything; the reader must raise the same
        return type(exc), str(exc)


def assert_same_outcome(result, expected):
    if isinstance(expected, tuple) or isinstance(result, tuple):
        assert result == expected
    else:
        assert_same_result(result, expected)


class Cells:
    """Cells of one column: clean ones, and rarer ones that a noisy input
    also draws, each a fifth as often as each clean one."""

    def __init__(self, clean, rare=(), numbers=False):
        self.clean, self.rare, self.numbers = list(clean), list(rare), numbers

    def draw(self, rng: random.Random, noisy: bool) -> str:
        if self.numbers and rng.random() < 0.5:
            return repr(rng.uniform(-1e3, 1e3))
        return rng.choice(self.clean * 5 + self.rare if noisy else self.clean)


_FLOAT = Cells(["0", "1.5", "-2.25", "10.0", "3.0e-5"],
               ["", " 1.0 ", "1_0", "Infinity", "-inf", "nan", "-0.0", "١٢", "abc", "1e308", "4.0", "7.0"],
               numbers=True)
_MUTATIONS = ["plain"] * 5 + ["quote", "open", "short", "long", "space", "empty", "hash"]
_LINE_ENDS = ["\n"] * 5 + ["\r\n", "\r"]
_EXTRA_LINES = ["", "   ", "# comment", "  # a,b,c", "\t"]


def line_of(rng: random.Random, cells: list[str], noisy: bool) -> str:
    """A line of cells without its line end; a noisy one may be mutated."""
    kind = rng.choice(_MUTATIONS) if noisy else "plain"
    k = rng.randrange(len(cells))
    if kind == "quote":
        cells[k] = f'"{cells[k]}"'
    elif kind == "open":
        cells[k] = '"' + cells[k]
    elif kind == "short":
        cells = cells[:k]
    elif kind == "long":
        cells.append(_FLOAT.draw(rng, noisy))
    elif kind == "space":
        cells[k] = f" {cells[k]}\t"
    elif kind == "empty":
        cells[k] = ""
    elif kind == "hash":
        cells[k] += "#1"
    return ",".join(cells)


def text_of(rng: random.Random, header: str, columns: list[Cells], max_rows: int) -> str:
    """A header and rows of the columns' cells as text, with blank and '#'
    lines between them and a line end drawn for each line; the last may
    have none. Half the texts are clean."""
    noisy = rng.random() < 0.5
    rows = [line_of(rng, [cells.draw(rng, noisy) for cells in columns], noisy)
            for _ in range(rng.randint(0, max_rows))]
    lines = []
    for line in [header, *rows]:
        if rng.random() < 0.1:
            lines.append(rng.choice(_EXTRA_LINES))
        lines.append(line)
    ends = [rng.choice(_LINE_ENDS) for _ in lines]
    if rng.random() < 0.5:
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


_DIMENSIONS = Cells(["4.0", "2", "1.8"] * 3 + [""], ["0", "-1", "nan", " 1.5 ", "1_0", "inf"])
_CANONICAL_CELLS = {
    "scenario_id": Cells(["s1", "s2"], [" s1", ""]),
    "agent_id": Cells(["A", "B", "C"], ["B ", ""]),
    "agent_type": Cells(["vehicle", "pedestrian", "cyclist", "other"], [" pedestrian", "truck", ""]),
    "t": Cells(["0.0", "0.1", "0.2", "0.3", "0.5", "-0.0"], ["0.1234", "2e-9", "1e14", "1e15", " 0.2", "1_0", "nan", "0.10"]),
    "x": _FLOAT,
    "y": _FLOAT,
    "speed": Cells(["0", "5.0", "1e-4"], ["-1", "nan", " 2 "]),
    "heading": Cells(["0.0", "1.0", "-3.0", "3.5", "-3.141592653589793", "3.141592653589793", "7.0"], ["inf", "nan"]),
    "length": _DIMENSIONS,
    "width": _DIMENSIONS,
    "note": Cells(["", "x"]),
}
_CANONICAL_HEADERS = [",".join(trajio.CANONICAL_COLUMNS), " " + ",".join(trajio.CANONICAL_COLUMNS) + ",note"]


def canonical_text(rng: random.Random) -> str:
    if rng.random() < 0.02:
        return ""
    header = rng.choice(_CANONICAL_HEADERS)
    return text_of(rng, header, [_CANONICAL_CELLS[name.strip()] for name in header.split(",")], 40)


def _streams(text, kind):
    """Two equal readers of text: the str itself or streams in a newline mode."""
    if kind == "str":
        return text, text
    if kind == "stringio":
        return io.StringIO(text), io.StringIO(text)
    newline = {"universal": None, "untranslated": "", "lf": "\n"}[kind]
    return tuple(io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline=newline) for _ in range(2))


# inputs come from a seeded random.Random: drawing every cell from
# hypothesis took four fifths of the test's time
_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
_BLOCK_CHARS = st.sampled_from([1, 2, 5, 16, 64, 1 << 18])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_SEEDS, st.sampled_from(["str", "stringio", "universal", "untranslated", "lf"]), _BLOCK_CHARS)
def test_parse_canonical_matches_the_row_reader(seed, kind, block_chars):
    new, old = _streams(canonical_text(random.Random(seed)), kind)
    with mock.patch.object(trajio, "_BLOCK_CHARS", block_chars):
        result = outcome(lambda: trajio.parse_canonical(new))
    assert_same_outcome(result, outcome(lambda: row_reference.parse_canonical(old)))


_DATASET_HEADERS = {
    "psi": "case_id,track_id,object_category,timestep,x,y,psi_rad,vx,vy,length,width",
    "vel": "case_id,track_id,object_category,timestep,x,y,vx,vy,length,width",
    "pos": "case_id,track_id,object_category,timestep,x,y,length,width",
    "bare": "track_id,case_id,timestep,object_category,x,y",
    "psi_alone": "case_id,track_id,object_category,timestep,x,y,psi_rad,width,length",
}
_DATASET_CELLS = {
    "case_id": Cells(["c1", "c2"], ["c1 ", ""]),
    "track_id": Cells(["AV", "1", "2"], [" AV", ""]),
    "object_category": Cells(["av", "car", "pedestrian", "bus"], ["PEDESTRIAN ", "unicycle", ""]),
    "timestep": Cells([str(step) for step in range(40)] + ["999999999999999"], [
        "٣", "1_0", "1.5", " 4 ", "", "-1", "-3", "1000000000000000", "-1000000000000000", "99999999999999999999"]),
    "x": _FLOAT,
    "y": _FLOAT,
    "vx": Cells(["0", "5.0", "-3", "1e-4", "2.5"], ["nan", "inf", ""]),
    "vy": Cells(["0", "0.0", "-0.0", "4.0", "-2.5e-4"], ["nan", "abc"]),
    "psi_rad": Cells(["0.0", "1.2", "3.5", "-3.141592653589793", "7.0"], ["inf", "nan", ""]),
    "length": Cells(["4.5", "2"] * 3 + [""], [" ", "0", "nan", "abc", "1_0"]),
    "width": Cells(["1.8", "2"] * 3 + [""], [" ", "-1", "inf"]),
}


def dataset_texts(rng: random.Random) -> list[str]:
    """One to three files, of one layout or each of its own."""
    layouts = sorted(_DATASET_HEADERS)
    one = rng.choice(layouts) if rng.random() < 0.5 else None
    texts = []
    for _ in range(rng.randint(1, 3)):
        header = _DATASET_HEADERS[one or rng.choice(layouts)]
        texts.append(text_of(rng, header, [_DATASET_CELLS[name] for name in header.split(",")], 30))
    return texts


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_SEEDS, _BLOCK_CHARS)
def test_adapt_external_matches_the_row_reader(seed, block_chars):
    """Files of different layouts share case and track ids, so one track's
    records can come from several files."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, text in enumerate(dataset_texts(random.Random(seed))):
            path = Path(tmp) / f"export{k}.csv"
            path.write_bytes(text.encode("utf-8"))
            paths.append(str(path))
        with mock.patch.object(trajio, "_BLOCK_CHARS", block_chars):
            result = outcome(lambda: trajio.adapt_external(paths))
        assert_same_outcome(result, outcome(lambda: row_reference.adapt_external(paths)))


def test_every_track_kind_takes_the_columnar_path_on_clean_exports(tmp_path):
    """Clean rows of each layout, with pedestrians without dimensions and
    near-zero speeds, are adapted without the row path."""
    rows = {"psi": [], "vel": [], "pos": []}
    for i in range(6):
        for kind, case in (("psi", "c1"), ("vel", "c2"), ("pos", "c3")):
            cells = {"case_id": case, "track_id": "AV", "object_category": "av", "timestep": str(i),
                     "x": repr(0.5 * i), "y": "0.0", "psi_rad": "0.0", "vx": "5.0", "vy": "0.0",
                     "length": "4.5", "width": "2"}
            rows[kind].append(cells)
            rows[kind].append(cells | {"track_id": "P", "object_category": "pedestrian", "x": "3.0",
                                       "y": repr(0.001 * i), "vx": "0.0", "vy": repr(1e-4 * i),
                                       "psi_rad": repr(math.pi * i), "length": "", "width": ""})
    paths = []
    for kind, records in rows.items():
        header = _DATASET_HEADERS[kind]
        lines = [header] + [",".join(r[name] for name in header.split(",")) for r in records]
        paths.append(tmp_path / f"{kind}.csv")
        paths[-1].write_text("\n".join(lines) + "\n", encoding="utf-8")
    with mock.patch.object(trajio, "_adapt_track", side_effect=AssertionError("row path taken")):
        result = trajio.adapt_external([str(p) for p in paths])
    assert_same_result(result, row_reference.adapt_external([str(p) for p in paths]))
    assert [i.message for i in result.issues] == ["track P: near-zero-speed frames inherit the previous heading"]


def test_a_row_path_track_across_blocks_reads_the_text_of_both(tmp_path):
    """Only blocks that hold a row of a track the row path rebuilds keep their
    text. Track D repeats a timestep, and its rows lie in an early block and
    a late one, with blocks of clean tracks before, between and after them."""
    header = "case_id,track_id,object_category,timestep,x,y,vx,vy,length,width"

    def rows(track, steps):
        return [f"c1,{track},car,{i},{0.5 * i},0.0,5.0,0.0,4.5,1.8" for i in steps]

    lines = [header, *rows("AV", range(30)), *rows("D", range(5)), *rows("C", range(60)), *rows("D", [4, 5, 6]),
             *rows("E", range(30))]
    path = tmp_path / "export.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with mock.patch.object(trajio, "_BLOCK_CHARS", 256):
        result = trajio.adapt_external([str(path)])
    assert_same_result(result, row_reference.adapt_external([str(path)]))
    assert [i.message for i in result.issues] == ["track D: duplicate timestep 4; later row dropped"]
    assert len(result.scenarios[0].agents["D"]) == 7


def test_adapt_external_peak_memory_stays_within_3_5_times_its_input(tmp_path):
    """Each value is held once and only while it is needed: the traced peak
    of adapt_external on the seed-1 dataset_filter exports of the benchmark
    (written by its generator in its own interpreter) stays within 3.5 times
    their size in bytes. Keeping every block's text and three copies of each
    column took 5.4 times."""
    subprocess.run([sys.executable, str(GEN), "--workload", "dataset_filter", "--seed", "1", "--out", str(tmp_path)],
                   check=True, capture_output=True)
    paths = [str(tmp_path / name) for name in ("export_psi.csv", "export_vel.csv", "export_pos.csv")]
    size = sum(Path(p).stat().st_size for p in paths)
    trajio.adapt_external(paths)  # so what it imports on first use is not counted
    tracemalloc.start()
    try:
        trajio.adapt_external(paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * size, f"peak {peak / size:.2f} times the {size} input bytes"
