"""Unit-circle diagrams.

Renders a few sorou as SVG files in the current directory.  A term of
multiplicity k is drawn at k times the base radius, so height-2 sorou show a
second ring.
"""

from minvan.cli import render_svg
from minvan.sorou import parse_sorou, render_sorou

from pathlib import Path

EXAMPLES = {
    "r5.svg": "1:0+5:1+5:2+5:3+5:4",
    "r5_r3.svg": "5:1+5:2+5:3+5:4+6:1+6:5",
    "doubled_term.svg": "3:1+3:1+3:2+2:1+2:1+2:1",
}

for name, text in EXAMPLES.items():
    s = parse_sorou(text)
    svg = render_svg(s)
    Path(name).write_text(svg + "\n")
    print(f"wrote {name}  ({render_sorou(s)})")
