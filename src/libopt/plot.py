"""Plot files of performance profiles: the one writer of ``perf.gnu`` and
``perf.m``.

Each row of a profile is the text of a grid point (its log2 with
``-log``) and of the profile's value there, both ``{:.6g}``. The writer
formats the grid's x texts once, ``X_BATCH`` points at a time, into one
string and an array of the offset of each text in it. It then cuts each
profile into constant-y segments ``STEP_BATCH`` steps at a time, each
segment one ``str.replace`` over its slice of that string, and writes
each batch to each file at once. So besides the x texts it holds one
batch of one profile's rows, never a list of every x text or row.

``write_outputs`` writes both files in that one pass, each into its own
temp file of ``errors.replaced``, the one writer of every file libopt
replaces: each file then holds its old bytes or all its new ones.
``emit_gnuplot`` and ``emit_matlab`` run the same writer into strings.
"""
from __future__ import annotations

import math
from array import array
from itertools import accumulate, chain, islice
from pathlib import Path
from typing import TextIO

from .errors import replaced
from .profile import ProfileError, StepFunction

# grid points formatted a batch, and steps of a profile cut and written a batch
X_BATCH = 1024
STEP_BATCH = 256


def _x_texts(grid: array, log_scale: bool) -> tuple[str, array]:
    """The grid's x texts, each ended by "\\n", in one string, and the
    offset of each in it, with the string's length last."""
    parts, at = [], array("q", [0])
    for k in range(0, len(grid), X_BATCH):
        xs = grid[k:k + X_BATCH]
        texts = list(map("{:.6g}\n".format, map(math.log2, xs) if log_scale else xs))
        at.extend(islice(accumulate(map(len, texts), initial=at[-1]), 1, None))
        parts.append("".join(texts))
    return "".join(parts), at


def _write_plots(profiles: list[StepFunction], log_scale: bool, gnu: TextIO, m: TextIO) -> None:
    """Write the Gnuplot data of the profiles to ``gnu`` and their Matlab
    script to ``m`` (see the module docstring)."""
    label = "log2(performance ratio)" if log_scale else "performance ratio"
    gnu.write(f"# performance profile data\n# x: {label}, y: fraction of problems\n")
    m.write("% performance profile data\n")
    if not profiles:
        m.write("error('no eligible problems: nothing to plot');\n")
        return
    grid = text = at = None  # the last grid met, and its x texts
    axis = ""
    for i, profile in enumerate(profiles, 1):
        steps_grid, starts, values = profile.steps
        if steps_grid is not grid:
            grid = steps_grid
            text, at = _x_texts(grid, log_scale)
        if grid and not axis:  # the x range of the first profile with points
            axis = f"axis([{text[:at[1] - 1]} {text[at[-2]:-1]} 0 1]);\n"
        # a blank line after the header, two between blocks
        gnu.write(("\n" if i == 1 else "\n\n") + f"# solver {profile.solver}\n")
        m.write(f"data{i} = [\n")
        last = ""  # the y text of the segment before the batch
        for k in range(0, len(starts), STEP_BATCH):
            heads = starts[k:k + STEP_BATCH]
            # where each segment starts, then where the last one ends
            offsets = [*map(at.__getitem__, starts[k:k + STEP_BATCH + 1]), len(text)]
            ys = list(map(" {:.6g}\n".format, values[k:k + STEP_BATCH]))
            segments = [text[a:b].replace("\n", y) for a, b, y in zip(offsets, offsets[1:], ys)]
            # a jump row before each segment but the profile's first
            # repeats the previous value at the segment's first x, so
            # steps render as horizontal segments
            jumps = [text[a:at[s + 1] - 1] + y for a, s, y in zip(offsets, heads, [last, *ys])]
            jumps[0] = jumps[0] if k else ""
            gnu.write("".join(chain.from_iterable(zip(jumps, segments))))
            # the same rows, indented, to the Matlab script
            m.write(("  " + "".join(segments)).replace("\n", "\n  ")[:-2])
            last = ys[-1]
        m.write("];\n")
    names = ", ".join("'" + p.solver.replace("'", "''") + "'" for p in profiles)
    m.write("figure;\nhold on;\n")
    m.writelines(f"stairs(data{i}(:,1), data{i}(:,2));\n" for i in range(1, len(profiles) + 1))
    m.write(f"hold off;\nlegend({names}, 'Location', 'SouthEast');\nxlabel('{label}');\n")
    m.write(f"ylabel('fraction of problems');\n{axis}")


def write_outputs(profiles: list[StepFunction], log_scale: bool, base: Path | str) -> tuple[Path, Path]:
    """Write the <base>.gnu and <base>.m plot-data files, each through
    ``errors.replaced``: each holds its old bytes or all its new ones."""
    gnu_path, m_path = Path(f"{base}.gnu"), Path(f"{base}.m")
    try:
        with replaced(gnu_path) as gnu, replaced(m_path) as m:
            _write_plots(profiles, log_scale, gnu, m)
    except OSError as exc:
        raise ProfileError(f"cannot write plot data: {exc}") from exc
    return gnu_path, m_path
