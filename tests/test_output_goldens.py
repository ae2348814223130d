"""Byte-exact stdout goldens for the data-producing CLI commands.

Each `out_<name>.txt` under tests/golden/ is the stdout of one invocation on
the committed inputs there; the Liouville verifications read the committed
construction goldens back, so the pair also checks the round trip.  Every
case exits 0 except the admissibility report on an inadmissible pq, which
exits 1 and still prints its report.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from mcf.cli import run

GOLDEN = Path(__file__).parent / "golden"
PQ2 = str(GOLDEN / "pq_m2.json")
PQ3 = str(GOLDEN / "pq_m3.json")
PQ3_SIGNS = str(GOLDEN / "pq_m3_signs.json")  # ragged, negative a_0, zero quotients
SCHEDULE = str(GOLDEN / "schedule_m2.json")

CASES = [
    ("convergents_m2_csv", ["convergents", "--pq", PQ2, "--depth", "39", "--emit", "csv"]),
    ("convergents_m2_jsonl", ["convergents", "--pq", PQ2, "--depth", "39", "--emit", "jsonl"]),
    ("convergents_m3_csv", ["convergents", "--pq", PQ3, "--depth", "29", "--emit", "csv"]),
    ("convergents_m3_jsonl", ["convergents", "--pq", PQ3, "--depth", "29", "--emit", "jsonl"]),
    ("convergents_m3_signs_csv", ["convergents", "--pq", PQ3_SIGNS, "--depth", "9", "--emit", "csv"]),
    ("verify_bounds_m2", ["verify", "bounds", "--pq", PQ2]),
    ("verify_bounds_m2_box", ["verify", "bounds", "--pq", PQ2, "--box", "0,0"]),
    ("periodic_solve_pure", ["periodic", "solve", "--per-a", "2", "--per-b", "1", "--json"]),
    ("periodic_solve_pre", ["periodic", "solve", "--pre-a", "0", "2", "--pre-b", "0", "1",
                            "--per-a", "3", "1", "2", "--per-b", "1", "0", "2", "--json"]),
    ("construct_liouville_m2", ["construct", "liouville", "--m", "2", "--delta", "3/2",
                                "--b-rule", "cycle:0,1,2", "--depth", "8"]),
    ("construct_liouville_m3", ["construct", "liouville", "--m", "3", "--delta", "1",
                                "--b-rule", "const:1", "--b-rule", "cycle:0,2",
                                "--depth", "7"]),
    ("verify_liouville_m2", ["verify", "liouville", "--delta", "3/2",
                             "--pq", str(GOLDEN / "out_construct_liouville_m2.txt")]),
    ("verify_liouville_m3", ["verify", "liouville", "--delta", "1",
                             "--pq", str(GOLDEN / "out_construct_liouville_m3.txt")]),
    ("verify_growth_m2", ["verify", "growth", "--pq", PQ2, "--M", "7", "--d", "2"]),
    ("verify_growth_m3_loglog", ["verify", "growth", "--pq", PQ3, "--d", "1"]),
    ("verify_main1_m2", ["verify", "main1", "--schedule", SCHEDULE, "--base", PQ2,
                         "--d", "2", "--c", "1", "--depth", "30"]),
    ("verify_main2_m2", ["verify", "main2", "--schedule", SCHEDULE, "--base", PQ2,
                         "--M", "7", "--N", "3", "--depth", "30"]),
    ("verify_admissible_violation", ["verify", "admissible",
                                     "--pq", str(GOLDEN / "pq_m2_inadmissible.json")]),
]
EXIT_CODES = {"verify_admissible_violation": 1}


def stdout_of(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_stdout_golden(name, argv):
    code, out = stdout_of(argv)
    assert code == EXIT_CODES.get(name, 0)
    assert out == (GOLDEN / f"out_{name}.txt").read_text()


def stdout_sha256(argv) -> str:
    code, out = stdout_of(argv)
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


# Deep runs, where root brackets are refined to thousands of bits and the engine's
# running forms re-seed many times, pinned by the sha256 of their stdout.

def test_deep_expand_stdout_hash(tmp_path):
    cbrt2 = {"kind": "algebraic", "minpoly": ["-2", "0", "0", "1"], "lo": "1/1", "hi": "2/1"}
    pair = tmp_path / "pair.json"  # (theta + 1, theta^2), theta = 2^(1/3)
    pair.write_text(json.dumps([{**cbrt2, "coords": ["1/1", "1/1", "0/1"]},
                                {**cbrt2, "coords": ["0/1", "0/1", "1/1"]}]))
    assert (stdout_sha256(["expand", "--input", str(pair), "--steps", "8000"])
            == "bb4842d2bddb812981752e77ff92c36ba8eb593598c4116e9cf38f55e335e07a")


def test_long_preperiod_periodic_solve_stdout_hash():
    ones = ["0"] + ["1"] * 999
    argv = ["periodic", "solve", "--json", "--pre-a", *ones, "--pre-b", *ones, "--per-a", "2", "--per-b", "1"]
    assert stdout_sha256(argv) == "02260fc36c5df514be060182d38880aa8277e3bd8799ca834ad35a2cc93defdb"
