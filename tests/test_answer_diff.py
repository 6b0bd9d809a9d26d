"""tests/answer_diff.py: its comparison, and the star sets run against themselves."""

import answer_diff
import star_sets


def _sets(tag="MonotoneShort", R=4.0, eps=0.01, u=0.5, bits="b"):
    return {
        "grid": {"stars": [("a", "MonotoneShort", 2.0, 1.0, "a"), ("b", tag, R, 3.0, bits)],
                 "epsilon0": eps, "u": []},
        "stars": {"stars": [("c", "NonMonotone", None, None, "c")], "epsilon0": None,
                  "u": [("rho=1", 0.25), ("rho=2", u)]},
    }


def test_report_names_tag_changes_and_moves():
    old = _sets()
    lines, changed = answer_diff.report(old, _sets())
    assert not changed
    assert lines == [
        "grid: 2 records", "  bits: identical", "  tags: unchanged", "  epsilon0: 0.01 unchanged",
        "  R+: unchanged", "  M+: unchanged",
        "stars: 1 records, 2 u samples", "  bits: identical", "  tags: unchanged",
        "  R+: unchanged", "  M+: unchanged", "  u: unchanged",
    ]
    # bits alone moved: counted, and not a change
    lines, changed = answer_diff.report(old, _sets(bits="b2"))
    assert not changed
    assert lines[:3] == ["grid: 2 records", "  bits: 1 of 2 moved", "  tags: unchanged"]
    # a tag change is listed and its star leaves the moves; u moves by 2e-16
    lines, changed = answer_diff.report(old, _sets(tag="NonMonotone", R=None, u=0.5 + 1e-16))
    assert changed
    assert lines[2:5] == ["  tags: 1 changed", "    b: MonotoneShort -> NonMonotone",
                          "  epsilon0: 0.01 unchanged"]
    assert lines[-1] == "  u: largest move 2.22e-16 relative (rho=2)"
    lines, changed = answer_diff.report(old, _sets(R=4.0 * (1 + 2**-50), eps=0.02))
    assert changed
    assert lines[3:5] == ["  epsilon0: 0.01 -> 0.02", "  R+: largest move 8.88e-16 relative (b)"]
    # beside a move, the old tree's own error against its tight re-solve
    tight = {"grid": {"stars": [("b", "MonotoneShort", 4.0 * (1 + 1e-10), 3.0, "t")]}, "stars": {"stars": []}}
    lines, _ = answer_diff.report(old, _sets(R=4.0 * (1 + 2**-50)), tight)
    assert lines[4] == "  R+: largest move 8.88e-16 relative (b); old tree's error 1e-10"


def test_star_sets_run_against_themselves_are_bit_identical():
    records = star_sets.records()
    assert [len(s["stars"]) for s in records.values()] == [12, 256, 4, 100, 54]
    assert len(records["series and Fermi stars"]["u"]) == 66
    lines, changed = answer_diff.report(records, star_sets.records())
    assert not changed
    assert all(line.endswith(("identical", "unchanged", "samples", "records")) for line in lines)
