"""The emulated shell never raises on seeded random hostile lines.

A 5,000-line run of :mod:`shell_fuzz`; the fuzz stage of ``scripts/ci.sh``
runs 100,000 lines of the same generator.
"""

from tests.shell_fuzz import fuzz_lines, run_fuzz


def test_fuzz_lines_are_seeded():
    assert list(fuzz_lines(3, 200)) == list(fuzz_lines(3, 200))
    assert list(fuzz_lines(3, 200)) != list(fuzz_lines(4, 200))


def test_fuzz_covers_the_hostile_constructs():
    lines = list(fuzz_lines(15, 5000))
    joined = "".join(lines)
    for construct in ("'", '"', "\\", "$(", "`", ">", ">>", ";", "|", "&&",
                      "||", "&", "\x00", "\udcff", "\ud800"):
        assert construct in joined, construct
    assert sum(len(line) >= 500 for line in lines) >= 20


def test_shell_never_raises():
    raised = run_fuzz(seed=15, count=5000)
    assert raised == [], raised[:5]
