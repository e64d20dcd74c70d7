"""Golden outputs: every demo config and smoke benchmark config, at 1 and 4 workers.

A case's exit code and content-digest file names must equal
``golden_manifests.json``; a declared output change regenerates that file
with ``make_golden_manifests.py`` and shows up as a diff of it.
"""

import json

import pytest

from make_golden_manifests import GOLDEN, cases, run_case

CASES = cases()
EXPECTED = json.loads(GOLDEN.read_text())


def test_golden_file_lists_every_case():
    assert sorted(EXPECTED) == sorted(CASES)


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_manifest(tmp_path, name, workers):
    command, config = CASES[name]
    assert run_case(command, config, tmp_path / "case", workers) == EXPECTED[name]
