"""The output-identity harness writes the same bytes on every run."""
import hashlib
import json

import numpy as np
import pytest

from identity import compare, json_differences, main, write_outputs


def test_identity_harness_k1_outputs_are_reproducible(tmp_path, capsys):
    digests = []
    for run in ("a", "b"):
        paths = write_outputs(tmp_path / run, ks=(1,))
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths})
    assert digests[0] == digests[1]
    # 3 models x (CSV, JSON) acceptance and failure-heavy sweeps; 4
    # strategies, each with the selftest output and certificate and the
    # correlate output and correlation
    assert len(digests[0]) == 1 + 2 * 6 + 4 * 5
    assert compare(tmp_path / "a", tmp_path / "b")
    assert "DIFFERS" not in capsys.readouterr().out


def test_identity_harness_writes_the_levels_given_to_ks(tmp_path):
    assert main([str(tmp_path), "--ks", "1"]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert len(names) == 1 + 2 * 6 + 4 * 5
    assert [n for n in names if "-k1-" not in n] == ["blas.json"]


def test_compare_reads_an_array_field_normwise(tmp_path, capsys):
    # a roundoff-sized entry whose sign flips read as a relative change of
    # 1.985 entry by entry; the field moved by 1e-16 of its norm
    a, b = tmp_path / "a", tmp_path / "b"
    for out, tiny in ((a, 1.0e-16), (b, -0.985e-16)):
        out.mkdir()
        doc = {"VA": [[1.0, tiny], [0.5, -2.0]], "alpha": 0.5, "name": "x"}
        (out / "cert.json").write_text(json.dumps(doc))
    fields = json_differences(*(json.loads((d / "cert.json").read_text()) for d in (a, b)))
    gap, rel, changed, other, total = fields["VA[][]"]
    assert (gap, changed, other, total) == (1.985e-16, 1, 0, 4)
    assert rel == pytest.approx(1.985e-16 / np.sqrt(1 + 0.25 + 4), rel=1e-12)
    assert fields["alpha"] == [0.0, 0.0, 0, 0, 1]
    assert not compare(a, b)
    out = capsys.readouterr().out
    assert "VA[][]: max abs 1.985e-16, normwise rel 8.663e-17 (1 of 4 entries)" in out
    assert out.splitlines()[-1] == (
        "summary: 0 identical, 1 differ; VA[][] max abs 1.985e-16 normwise rel 8.663e-17"
    )
