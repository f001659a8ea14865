"""`gradedca compute --no-timings` on every corpus file, over F_32003 and
over Q, byte for byte against the outputs recorded in tests/golden/.

<stem>.fp.json is the output for corpus/<stem>.json as it stands, and
<stem>.qq.json for a copy with "characteristic": null.  The one field
that names the running interpreter, versions.python, is read from the
running one; every other byte must match.  Regenerate a file only for a
change of output that is meant.
"""

import json
import os
import platform

import pytest

from gradedca import cli

HERE = os.path.dirname(__file__)
CORPUS = os.path.join(HERE, "..", "corpus")
GOLDEN = os.path.join(HERE, "golden")
CORPUS_MODULES = sorted(n[:-5] for n in os.listdir(CORPUS))
RECORDED_PYTHON = '"python": "3.11.7"'


@pytest.mark.parametrize("field", ["fp", "qq"])
@pytest.mark.parametrize("name", CORPUS_MODULES)
def test_compute_output_matches_the_recorded_one(name, field, tmp_path,
                                                  monkeypatch):
    monkeypatch.delenv("GRADEDCA_CHAR", raising=False)
    with open(os.path.join(CORPUS, name + ".json")) as fh:
        raw = json.load(fh)
    if field == "qq":
        raw["ring"]["characteristic"] = None
    job = tmp_path / (name + ".json")
    job.write_text(json.dumps(raw))
    out = tmp_path / "out.json"
    assert cli.main(["compute", str(job), "--no-timings", "--out", str(out)]) == 0
    with open(os.path.join(GOLDEN, "%s.%s.json" % (name, field)), "rb") as fh:
        want = fh.read().replace(
            RECORDED_PYTHON.encode(),
            ('"python": "%s"' % platform.python_version()).encode())
    assert out.read_bytes() == want
