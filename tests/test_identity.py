"""The output-identity harness writes the same bytes on every run."""
import hashlib

from identity import compare, main, write_outputs


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
