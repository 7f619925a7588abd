"""Output-identity harness: write the package's standard outputs, or compare two sets.

    PYTHONPATH=src python tests/identity.py OUT [--ks K [K ...]]
    python tests/identity.py --compare A B

The first form writes into the directory OUT, for each ladder level k in
1, 5, 10 and 15, or in the levels given to ``--ks``:

* ``sweep-k{k}-{model}.csv`` and ``.json``: the acceptance sweeps at n=4,
  seed 1234, one per noise model, where k has one: k=1 runs the zero level
  and 7 log-spaced levels from 1e-4 to 1e-1 with 10 trials each, k=5 the
  zero level and 3 log-spaced levels with 8 trials each
* ``sweep-k{k}-{model}-failure-heavy.csv`` and ``.json``: at the same k, n
  and seed, the levels 0.3, 0.6 and 1.0 with 10 trials each, where many
  extractions fail, so that a stack whose fits fail and whose halves are
  certified again is covered too
* ``strategy-k{k}-{name}.json``, ``selftest-k{k}-{name}.out`` and
  ``.cert.json``, ``correlate-k{k}-{name}.out`` and ``.json``: ``projsum
  selftest`` and ``projsum correlate`` on the canonical strategy and on it
  perturbed by each noise model at 1e-3 with perturb seed 7; each ``.out``
  file holds the exit code, standard output and standard error
* ``blas.json``: the BLAS thread variables of the environment and the numpy
  version, since certificates at k >= 5 differ in their last bits between
  BLAS thread counts.  It records the environment only, not the thread
  count the BLAS chose: two sets written with no variable set both record
  null, whatever their machines' core counts.  Compare only sets written
  with the thread count pinned (OPENBLAS_NUM_THREADS=1, say)

The second form prints, for each file of either directory, whether it is
identical; for a JSON file that is not, the largest absolute and relative
difference of each numeric field (list positions are pooled, so
``[].epsilon`` is the epsilon of every sweep row), and the number of changed
entries of each other field; for a text file, the number of changed lines.
Its last line sums up: the number of identical and of differing files, and
for each numeric field that changed, its largest absolute and relative
difference over all files.  It exits 0 when every file is identical and 1
otherwise.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

SEED = 1234
PERTURB_SEED = 7
PERTURB_LEVEL = 1e-3
KS = (1, 5, 10, 15)
# k: (levels, trials per level) of the acceptance sweeps
SWEEPS = {
    1: ((0.0,) + tuple(float(l) for l in np.logspace(-4, -1, 7)), 10),
    5: ((0.0,) + tuple(float(l) for l in np.logspace(-4, -1, 3)), 8),
}
# (levels, trials per level) of the failure-heavy sweeps, at every k of SWEEPS
FAILURE_HEAVY = ((0.3, 0.6, 1.0), 10)
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def write_outputs(out, ks=KS) -> list[Path]:
    """Write the standard set for the levels ``ks`` into ``out``; return the paths."""
    # imported here, so that --compare runs without projsum on the path
    from projsum.families import four_family
    from projsum.strategies import NOISE_MODELS, perturb
    from projsum.sweep import SweepConfig, emit_report, run_sweep
    from projsum.serialize import save_json, strategy_to_dict

    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    written = [out / "blas.json"]
    blas = {name: os.environ.get(name) for name in BLAS_VARIABLES}
    written[0].write_text(json.dumps(dict(blas, numpy=np.__version__), sort_keys=True) + "\n")
    for k in ks:
        if k in SWEEPS:
            for suffix, (levels, trials) in (("", SWEEPS[k]), ("-failure-heavy", FAILURE_HEAVY)):
                for model in NOISE_MODELS:
                    rows = run_sweep(SweepConfig(4, k, model, levels, trials, SEED))
                    for fmt in ("csv", "json"):
                        written.append(out / f"sweep-k{k}-{model}{suffix}.{fmt}")
                        emit_report(rows, fmt, written[-1])
        canonical = four_family(k).canonical_strategy
        strategies = {"canonical": canonical}
        for model in NOISE_MODELS:
            strategies[model] = perturb(canonical, model, PERTURB_LEVEL, PERTURB_SEED)
        for name, strategy in strategies.items():
            source = out / f"strategy-k{k}-{name}.json"
            save_json(strategy_to_dict(strategy), source)
            written.append(source)
            stem = out / f"selftest-k{k}-{name}"
            cert = Path(f"{stem}.cert.json")
            args = ["selftest", str(source), "--n", "4", "--k", str(k), "--cert", str(cert)]
            written += [run_command(args, stem, out)] + ([cert] if cert.exists() else [])
            stem = out / f"correlate-k{k}-{name}"
            corr = Path(f"{stem}.json")
            args = ["correlate", str(source), "--out", str(corr)]
            written += [run_command(args, stem, out)] + ([corr] if corr.exists() else [])
    return written


def run_command(args, stem, out) -> Path:
    """Run ``projsum ARGS`` in-process and write its exit code, standard output
    and standard error to ``STEM.out``; return that path."""
    from projsum.cli import main as cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = cli(args)
    # the paths it prints name OUT, which differs between the sets
    text = (stdout.getvalue() + stderr.getvalue()).replace(f"{out}{os.sep}", "")
    report = Path(f"{stem}.out")
    report.write_text(f"exit {status}\n{text}")
    return report


def leaves(doc, path=""):
    """(field, value) of every leaf of a JSON document, list positions pooled as []."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for value in doc:
            yield from leaves(value, f"{path}[]")
    else:
        yield path, doc


def json_differences(a, b) -> dict | None:
    """field: [max abs, max rel, changed numbers, other changed entries,
    entries] of two JSON documents, for every field; None when their fields
    are not the same."""
    left, right = list(leaves(a)), list(leaves(b))
    if [f for f, _ in left] != [f for f, _ in right]:
        return None
    fields: dict[str, list] = {}
    for (field, x), (_, y) in zip(left, right):
        entry = fields.setdefault(field, [0.0, 0.0, 0, 0, 0])
        entry[4] += 1
        if x == y and type(x) is type(y):
            continue
        if all(type(v) in (int, float) for v in (x, y)):
            gap = abs(x - y)
            entry[0] = max(entry[0], gap)
            entry[1] = max(entry[1], gap / max(abs(x), abs(y)))
            entry[2] += 1
        else:  # a boolean, a string or a None that changed
            entry[3] += 1
    return fields


def difference_lines(fields: dict | None) -> list[str]:
    """One line per field of json_differences whose values differ."""
    if fields is None:
        return ["    layout differs"]
    lines = []
    for field, (gap, rel, changed, other, total) in fields.items():
        if changed:
            lines.append(
                f"    {field}: max abs {gap:.3e}, max rel {rel:.3e} ({changed} of {total} entries)"
            )
        if other:
            lines.append(f"    {field}: {other} of {total} non-numeric entries changed")
    return lines


def compare(a, b) -> bool:
    """Print the comparison of two output directories, ending with a summary
    line: the counts of identical and differing files, and for each numeric
    field that changed its largest absolute and relative difference over all
    files.  True if all files are identical."""
    a, b = Path(a), Path(b)
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    identical = 0
    worst: dict[str, tuple] = {}  # field: (max abs, max rel) over all files
    for name in names:
        left, right = a / name, b / name
        if not (left.exists() and right.exists()):
            print(f"only in {a if left.exists() else b}: {name}")
            continue
        x, y = left.read_bytes(), right.read_bytes()
        if x == y:
            print(f"identical  {name}")
            identical += 1
            continue
        print(f"DIFFERS    {name}")
        if name.endswith(".json"):
            fields = json_differences(json.loads(x), json.loads(y))
            print("\n".join(difference_lines(fields)))
            for field, (gap, rel, changed, _, _) in (fields or {}).items():
                if changed:
                    old = worst.get(field, (0.0, 0.0))
                    worst[field] = (max(old[0], gap), max(old[1], rel))
        else:
            lines = list(zip(x.decode().splitlines(), y.decode().splitlines()))
            changed = sum(1 for p, q in lines if p != q)
            print(f"    {changed} of {len(lines)} lines changed")
    summary = [f"{identical} identical, {len(names) - identical} differ"]
    summary += [f"{f} max abs {g:.3e} rel {r:.3e}" for f, (g, r) in sorted(worst.items())]
    print("summary: " + "; ".join(summary))
    return identical == len(names)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", nargs="?", help="directory to write the standard outputs into")
    parser.add_argument(
        "--ks", nargs="+", type=int, default=KS, metavar="K", help="ladder levels to write"
    )
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two output sets")
    args = parser.parse_args(argv)
    if args.compare:
        return 0 if compare(*args.compare) else 1
    if args.out is None:
        parser.error("give OUT or --compare A B")
    write_outputs(args.out, args.ks)
    return 0


if __name__ == "__main__":
    sys.exit(main())
