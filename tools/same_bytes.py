"""Check that this checkout writes the same output bytes as another one.

    python tools/same_bytes.py PARENT_CHECKOUT

Runs `python -m roamlab.cli` in this checkout and in PARENT_CHECKOUT, each
with PYTHONPATH=<checkout>/src, on six runs:

- the default `experiment --runs 4 --seed 7` at `--jobs 1`;
- the same at `--jobs 2`;
- the same with `flags.weight_accumulation`, at `--runs 2`;
- the protocol_case3 benchmark setup: `pool.size` 1000, `--case 3 --jobs 1
  --runs 2`;
- case 1 alone, `--case 1 --jobs 1 --runs 2`: a truth stage with no sequence
  pool and a policy family of one role;
- the staged tiny pipeline, `generate-obs`, `baseline`, `assimilate` and
  `evaluate`, on the TINY_OVERRIDES of tests/conftest.py.

The two output trees of each run are compared file by file, skipping
run_manifest.json, which holds a wall-clock time. Every file that differs or
is missing from one tree is named. Exits 0 only if every file is identical.
The trees are written to a temporary directory that is removed at exit.

A refactor that leaves the RNG streams unchanged must pass; a change that
legitimately moves output bytes will fail, so this is not a CI step.
"""

import ast
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT = ["--runs", "4", "--seed", "7"]


def tiny_overrides() -> dict:
    """TINY_OVERRIDES as tests/conftest.py defines it, read without importing it."""
    tree = ast.parse((ROOT / "tests" / "conftest.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "TINY_OVERRIDES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise SystemExit("tests/conftest.py defines no TINY_OVERRIDES")


def runs():
    """(name, config or None, list of CLI argument lists) of each run."""
    return [
        ("default-jobs1", None, [["experiment", *DEFAULT, "--jobs", "1"]]),
        ("default-jobs2", None, [["experiment", *DEFAULT, "--jobs", "2"]]),
        ("weight-accumulation", {"flags.weight_accumulation": True},
         [["experiment", "--runs", "2", "--seed", "7", "--jobs", "1"]]),
        ("protocol_case3", {"pool.size": 1000},
         [["experiment", "--case", "3", "--jobs", "1", "--runs", "2", "--seed", "7"]]),
        ("case1-only", None,
         [["experiment", "--case", "1", "--jobs", "1", "--runs", "2", "--seed", "7"]]),
        ("staged-tiny", tiny_overrides(),
         [["generate-obs"], ["baseline"], ["assimilate"], ["evaluate"]]),
    ]


def run(checkout: Path, commands, config, out: Path):
    """Run each command of one run in checkout, writing under out."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    extra = [] if config is None else ["--config", str(config)]
    for args in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "roamlab.cli", *args, *extra, "--out", str(out)],
            cwd=checkout, env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise SystemExit(f"{checkout}: {' '.join(args)} exited {proc.returncode}\n"
                             f"{proc.stderr}")


def differences(a: Path, b: Path):
    """Relative paths of the files that differ between trees a and b or are
    missing from one of them, run_manifest.json excepted."""
    files = {
        p.relative_to(root).as_posix()
        for root in (a, b) for p in root.rglob("*")
        if p.is_file() and p.name != "run_manifest.json"
    }
    return sorted(
        f for f in files
        if not ((a / f).is_file() and (b / f).is_file()
                and filecmp.cmp(a / f, b / f, shallow=False))
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    if not (parent / "src" / "roamlab").is_dir():
        print(f"error: {parent} holds no src/roamlab", file=sys.stderr)
        return 2
    failed = False
    with tempfile.TemporaryDirectory(prefix="same_bytes-") as tmp:
        tmp = Path(tmp)
        for name, config, commands in runs():
            config_path = None
            if config is not None:
                config_path = tmp / f"{name}.json"
                config_path.write_text(json.dumps(config))
            trees = {label: tmp / name / label for label in ("this", "parent")}
            run(ROOT, commands, config_path, trees["this"])
            run(parent, commands, config_path, trees["parent"])
            diff = differences(trees["this"], trees["parent"])
            print(f"{name}: {'identical' if not diff else f'{len(diff)} file(s) differ'}")
            for f in diff:
                print(f"  {f}")
            failed = failed or bool(diff)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
