"""tests/answer_diff.py: its comparison, and the star sets run against themselves."""

import answer_diff
import star_sets


def _sets(tag="MonotoneShort", R=4.0, eps=0.01, u=0.5, bits="b", work=(7, 43)):
    return {
        "grid": {"stars": [("a", "MonotoneShort", 2.0, 1.0, "a", [5, 31]),
                           ("b", tag, R, 3.0, bits, list(work))],
                 "epsilon0": eps, "u": []},
        "stars": {"stars": [("c", "NonMonotone", None, None, "c", [2, 13])], "epsilon0": None,
                  "u": [("rho=1", 0.25), ("rho=2", u)]},
    }


def test_report_names_tag_changes_and_moves():
    old = _sets()
    lines, changed = answer_diff.report(old, _sets())
    assert not changed
    assert lines == [
        "grid: 2 records", "  bits: identical", "  steps 12, n_rhs 74: unchanged", "  tags: unchanged",
        "  epsilon0: 0.01 unchanged", "  R+: unchanged", "  M+: unchanged",
        "stars: 1 records, 2 u samples", "  bits: identical", "  steps 2, n_rhs 13: unchanged",
        "  tags: unchanged", "  R+: unchanged", "  M+: unchanged", "  u: unchanged",
    ]
    # bits and work alone moved: counted and totalled per tree, and not a change
    lines, changed = answer_diff.report(old, _sets(bits="b2", work=(7, 42)))
    assert not changed
    assert lines[:4] == ["grid: 2 records", "  bits: 1 of 2 moved", "  steps 12 -> 12, n_rhs 74 -> 73",
                         "  tags: unchanged"]
    # a tag change is listed and its star leaves the moves; u moves by 2e-16
    lines, changed = answer_diff.report(old, _sets(tag="NonMonotone", R=None, u=0.5 + 1e-16))
    assert changed
    assert lines[3:6] == ["  tags: 1 changed", "    b: MonotoneShort -> NonMonotone",
                          "  epsilon0: 0.01 unchanged"]
    assert lines[-1] == "  u: largest move 2.22e-16 relative (rho=2)"
    lines, changed = answer_diff.report(old, _sets(R=4.0 * (1 + 2**-50), eps=0.02))
    assert changed
    assert lines[4:6] == ["  epsilon0: 0.01 -> 0.02", "  R+: largest move 8.88e-16 relative (b)"]
    # beside a move, the old tree's own error against its tight re-solve
    tight = {"grid": {"stars": [("b", "MonotoneShort", 4.0 * (1 + 1e-10), 3.0, "t", [9, 60])]},
             "stars": {"stars": []}}
    lines, _ = answer_diff.report(old, _sets(R=4.0 * (1 + 2**-50)), tight)
    assert lines[5] == "  R+: largest move 8.88e-16 relative (b); old tree's error 1e-10"


def test_star_sets_run_against_themselves_are_bit_identical():
    records = star_sets.records()
    assert [len(s["stars"]) for s in records.values()] == [12, 256, 4, 100, 54]
    assert len(records["series and Fermi stars"]["u"]) == 66
    # every record carries the work of the solutions it hashed
    assert all(s[5][0] > 0 and s[5][1] > 6 * s[5][0] for t in records.values() for s in t["stars"])
    lines, changed = answer_diff.report(records, star_sets.records())
    assert not changed
    assert all(line.endswith(("identical", "unchanged", "samples", "records")) for line in lines)
