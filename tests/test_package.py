"""The package's public names and what importing it loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import fedsample

# hashlib would load OpenSSL (_hashlib) and _blake2 for the stream labels'
# sha256, and csv only serves the two CSV dataset functions.
UNUSED = ("hashlib", "_hashlib", "_blake2", "csv", "_csv")


def test_all_names_resolve_without_duplicates():
    names = fedsample.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(fedsample, n)] == []


def loaded_after(statement: str) -> dict:
    code = (
        "import json, sys\n"
        f"{statement}\n"
        f"print(json.dumps({{'unused': [m for m in {UNUSED!r} if m in sys.modules],"
        " 'own': sorted(m for m in sys.modules if m.split('.')[0] == 'fedsample')}))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    return json.loads(out.stdout)


def test_cold_import_loads_no_openssl_or_csv():
    loaded = loaded_after("import fedsample")
    assert loaded["unused"] == []
    # Every submodule still loads at import: nothing is deferred to first use.
    assert loaded["own"] == ["fedsample"] + [
        f"fedsample.{m}" for m in ("data", "engine", "errors", "models", "ou", "policies", "seeding")]
    loaded = loaded_after("import fedsample.cli")
    assert loaded["unused"] == []
    assert "fedsample.config" in loaded["own"]
