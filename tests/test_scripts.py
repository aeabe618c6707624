"""Smoke test of the experiment scripts: each main() runs on tiny arguments
and prints its table header."""
import os
import runpy
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")

TINY = ["--tokens", "4", "--layers", "1", "--d-model", "8", "--d-ff", "24"]
CASES = [
    ("gamma_sweep.py", TINY + ["--gammas", "0.2", "1.0", "--densities", "0.5"],
     ["gamma", "density", "hit_rate", "steady_tok_s", "mean_rel_err"], 2),
    ("policy_comparison.py", TINY + ["--densities", "0.5"],
     ["density", "scheme", "policy", "hit_rate", "steady_tok_s"], 4),
    ("dense_throughput_table.py", ["--geometry", "desk-small", "--tokens", "2"],
     ["preset", "dram_gb", "flash_gbps", "cold_tok_s", "steady_tok_s"], 5),
]


@pytest.mark.parametrize("script, argv, header, rows", CASES, ids=[c[0] for c in CASES])
def test_script_main_prints_its_table(script, argv, header, rows, monkeypatch, capsys):
    path = os.path.join(SCRIPTS, script)
    main = runpy.run_path(path)["main"]
    monkeypatch.setattr(sys, "argv", [path] + argv)
    assert main() is None
    lines = capsys.readouterr().out.splitlines()
    at = next(i for i, line in enumerate(lines) if line.split()[:1] == header[:1])
    assert lines[at].split() == header
    assert set(lines[at + 1]) == {"-"}
    assert len(lines) - at - 2 == rows


def test_src_lines_counts_code_lines_only(monkeypatch, capsys):
    path = os.path.join(SCRIPTS, "src_lines.py")
    script = runpy.run_path(path)
    text = ('"""Doc\nstring."""\n\n# comment\nx = 1  # trailing\n\n'
            'def f():\n    """One."""\n    return (1,\n            2)\n')
    # code: x = 1, def f():, and the two lines of the return
    assert script["count_lines"](text) == (10, 4)
    monkeypatch.setattr(sys, "argv", [path])
    assert script["main"]() is None
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["physical", "logic", "file"]
    *files, total = [line.split() for line in lines[2:]]
    assert total[2] == "total" and any(f[2].endswith("hwsim.py") for f in files)
    for column in (0, 1):
        assert sum(int(f[column]) for f in files) == int(total[column])
    assert 0 < int(total[1]) < int(total[0])
