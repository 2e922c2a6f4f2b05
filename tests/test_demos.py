import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import numsgps

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

# sha256 of each demo's stdout, as GOLDEN pins the CLI's; 05 prints timings,
# so it is not pinned
STDOUT_SHA256 = {
    "01_invariants.py": "bf0d264722455b776fe2c43dfa19ae9d67019795cc5ffb4a2097de18cf22a674",
    "02_ideal_extensions.py": "40192e3439f6530ff49f470be9639d1c85f2f7fb14318d0ef03b70530101447c",
    "03_chains_and_complexity.py":
        "35874cf7703ae6f636e3a06e5defce9866edab89379153649d37e49656abc74f",
    "04_genealogy.py": "1aae471b354e7835aac097729d902084e68be91a6162fe4f457c9149c7cabcc6",
}


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5
    assert set(STDOUT_SHA256) == {p.name for p in DEMOS[:4]}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    # run the package under test, installed or not
    src = str(Path(numsgps.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    if demo.name in STDOUT_SHA256:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name]
