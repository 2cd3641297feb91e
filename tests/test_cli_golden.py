"""Byte-stable CLI output: stdout and exit status of fixed invocations
against golden files under tests/golden/cli/.

The witness cases read the perturbed non-solution from the conftest
fixture, written to a temporary JSON file.  To regenerate a golden file
after a deliberate output change, write the command's stdout to
tests/golden/cli/<name>.out and record the change in CHANGES.md.
"""

import json
import os

import pytest

from qlab import poly_to_json_dict
from qlab.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden", "cli")

# (golden file name, argv with WITNESS for the witness tau file, exit status)
CASES = [
    ("q_4_2_1", ["q", "4,2,1"], 0),
    ("q_4_2_1_json", ["q", "4,2,1", "--format", "json"], 0),
    ("qa_3_1_factorial_x", ["qa", "3,1", "--params", "factorial", "--basis", "x"], 0),
    ("hierarchy_w7_json", ["hierarchy", "--max-weight", "7", "--format", "json"], 0),
    ("check_bilinear_q_3_1", ["check-bilinear", "--tau", "q:3,1"], 0),
    ("check_bilinear_witness", ["check-bilinear", "--tau", "json:WITNESS"], 1),
    ("check_bkp_qa_3_1_factorial_w8",
     ["check-bkp", "--tau", "qa:3,1@factorial", "--max-weight", "8"], 0),
    ("check_bkp_witness_w8", ["check-bkp", "--tau", "json:WITNESS", "--max-weight", "8"], 1),
    ("oracle_compare_5_4_factorial",
     ["oracle-compare", "--max-sum", "5", "--nvars", "4", "--params", "factorial"], 0),
]


@pytest.mark.parametrize("name,argv,status", CASES, ids=[c[0] for c in CASES])
def test_cli_matches_golden(name, argv, status, tmp_path, capsys, witness):
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(poly_to_json_dict(witness)))
    code = main([a.replace("WITNESS", str(path)) for a in argv])
    captured = capsys.readouterr()
    with open(os.path.join(GOLDEN_DIR, f"{name}.out"), encoding="utf-8") as fh:
        assert captured.out == fh.read()
    assert code == status
    assert captured.err == ""
