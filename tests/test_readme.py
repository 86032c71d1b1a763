"""The README's library examples run as written and give the values their
comments state."""

import re
from fractions import Fraction as F
from pathlib import Path

from lotdp import holding_cost

README = Path(__file__).resolve().parents[1] / "README.md"


def library_blocks():
    """The ```python blocks under "Quick start (library)", in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (library)\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)


def test_quick_start_examples_give_their_stated_values():
    blocks = library_blocks()
    assert len(blocks) == 2
    scope = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), scope)
    inst, report, timeline = scope["inst"], scope["report"], scope["timeline"]
    assert report.solution.per_supplier_totals == (F(5, 2), F(5, 2))
    assert report.solution.objective == F(35, 2)
    assert report.best_H == 2
    assert timeline.lam == inst.lam
    batches = sum(holding_cost(d.volume, inst.lam, inst.c_hold) for d in report.solution.deliveries)
    assert batches == F(25, 2)
    assert scope["holding_integral"](timeline, inst.c_hold) == batches
