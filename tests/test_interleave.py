"""Smoke test of tools/interleave.py: the repository against itself."""

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_interleave_repo_against_itself():
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "interleave.py"), str(REPO),
         str(REPO), "--workload", "gradcheck", "--rounds", "2"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    trees = {line.split(":")[0]: line for line in lines[:2]}
    assert set(trees) == {"parent", "change"}
    for line in trees.values():
        assert re.search(r": [\d.]+ op-units/s, latency mean [\d.]+ ms, "
                         r"p90 [\d.]+ ms, ", line)
        assert re.search(r", failed 0/[1-9]\d*$", line)
    # the same code on both sides: the same loss and accuracy
    same = [re.search(r"loss .*, failed", line).group(0) for line in trees.values()]
    assert same[0] == same[1]
    assert re.fullmatch(r"ratio change/parent: median [\d.]+ \(min [\d.]+, "
                        r"max [\d.]+\); change faster in [0-2]/2 rounds", lines[2])


def test_interleave_three_trees():
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "interleave.py"), str(REPO),
         str(REPO), str(REPO), "--workload", "gradcheck", "--rounds", "2"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == ["tree1", "tree2", "tree3"]
    for line in lines[:3]:
        assert re.search(r": [\d.]+ op-units/s, latency mean [\d.]+ ms, "
                         r"p90 [\d.]+ ms, .*, failed 0/[1-9]\d*$", line)
    assert len({re.search(r"loss .*, failed", line).group(0)
                for line in lines[:3]}) == 1
    for line, (after, before) in zip(lines[3:], [("tree2", "tree1"),
                                                 ("tree3", "tree2")]):
        assert re.fullmatch(rf"ratio {after}/{before}: median [\d.]+ \(min [\d.]+, "
                            rf"max [\d.]+\); {after} faster in [0-2]/2 rounds", line)
    assert len(lines) == 5
