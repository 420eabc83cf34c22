"""What importing the package loads, and when.

Package ``__init__``s re-export lazily (``repro.lazy_exports``), so a study
imports only the modules it runs.  These tests pin the three things that
could go wrong with that: a re-exported name resolving to the wrong object,
an import moving into the timed part of a study, and a module shaping a
cached study without being in the cache key's code fingerprint.  Each runs
in a fresh interpreter, since the test process has imported nearly
everything already.
"""

from __future__ import annotations

import ast
import hashlib
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

import repro
from repro._version import __version__
from repro.cache import fingerprint
from repro.cache.fingerprint import STAGE_MODULES
from tests import import_closure
from tests.test_fingerprint import EXCLUDED

SRC = Path(repro.__file__).resolve().parent

#: The benchmark's quick traffic scale (its ``rules-10k`` workload's),
#: applied here to the ``standard`` scenario.
QUICK = dict(volume_scale=0.02, background_per_exploit=0.3, background_nvd_count=2000)

#: The seven shard queries the benchmark answers after each study.
QUERIES = (
    ("skill", {}),
    ("lifecycle", {}),
    ("vendors", {}),
    ("kev", {}),
    ("describe", {}),
    ("windows", {"later": "A", "earlier": "D"}),
    ("windows", {"later": "X", "earlier": "F"}),
)

#: Loaded by neither a study nor its artifacts or queries.
NEVER_AT_SETUP = (
    "repro.store.server",
    "asyncio",
    "repro.nids.live",
    "repro.nids.lint",
    "repro.experiments.registry",
    "multiprocessing",
    "cProfile",
)


def _run(script: str, *args: str) -> object:
    """Run ``script`` in a fresh interpreter; it prints one JSON document."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _modules() -> List[str]:
    """Every ``repro`` module and package under the source tree."""
    names = []
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        names.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return names


def _packages() -> List[str]:
    return sorted(
        ".".join(path.parent.relative_to(SRC.parent).parts)
        for path in SRC.rglob("__init__.py")
    )


def _sources(package: str) -> Dict[str, str]:
    """Name → defining module for each name ``package``'s ``__init__``
    takes from another module: its ``lazy_exports`` mapping and its
    ``from ... import`` statements, read from source."""
    path = SRC.parent.joinpath(*package.split("."), "__init__.py")
    sources: Dict[str, str] = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                sources[alias.asname or alias.name] = node.module
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "lazy_exports"
        ):
            mapping = ast.literal_eval(node.args[1])
            for module, names in mapping.items():
                sources.update(dict.fromkeys(names, module))
    return sources


def _exports() -> List[Tuple[str, str, str]]:
    """(package, name, defining module) for every ``__all__`` name."""
    rows = []
    for package in _packages():
        sources = _sources(package)
        for name in importlib.import_module(package).__all__:
            rows.append((package, name, sources.get(name, package)))
    return rows


PARITY = """
import importlib, json, sys

rows, modules = json.loads(sys.argv[1]), json.loads(sys.argv[2])

def check(phase):
    wrong = []
    for package, name, source in rows:
        listed = name in dir(importlib.import_module(package))
        got = getattr(importlib.import_module(package), name)
        scope = {}
        exec(f"from {package} import {name}", scope)
        want = getattr(importlib.import_module(source), name)
        if not (listed and got is want and scope[name] is want):
            wrong.append([phase, package, name, listed, repr(got)[:80]])
    return wrong

wrong = check("first access")
for module in modules:
    importlib.import_module(module)
wrong += check("after every submodule")
print(json.dumps(wrong))
"""


def test_every_export_is_its_defining_modules_object():
    """Each ``__all__`` name is the defining module's object through
    ``getattr``, ``from package import name`` and ``dir()``: first
    resolved lazily, then again once every submodule is imported (a
    submodule that shares a name, ``repro.core.skill``, must not shadow
    it)."""
    rows = _exports()
    assert len(rows) > 150
    assert ("repro.core", "skill", "repro.core.skill") in rows
    assert ("repro.scenarios", "resolve", "repro.scenarios.resolve") in rows
    wrong = _run(PARITY, json.dumps(rows), json.dumps(_modules()))
    assert wrong == []


def test_readme_quickstart_imports():
    found = _run(
        "import json\n"
        "from repro import run_study, StudyConfig, run_experiment\n"
        "import repro.analysis.pipeline as p, repro.experiments.registry as r\n"
        "print(json.dumps([run_study is p.run_study, StudyConfig is p.StudyConfig,"
        " run_experiment is r.run_experiment]))\n"
    )
    assert found == [True, True, True]


def test_setup_import_leaves_out_what_no_study_runs():
    loaded = _run(
        "import json, sys\n"
        "import repro.analysis.pipeline, repro.store\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert [name for name in NEVER_AT_SETUP if name in loaded] == []


TIMED = """
import json, sys
import repro.analysis.pipeline as pipeline
import repro.experiments.registry as registry
import repro.store as store

root, quick, queries = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
before = set(sys.modules)
config = pipeline.StudyConfig.from_scenario("standard", **quick)
cold = pipeline.run_study(config, cache=root)
warm = pipeline.run_study(config, cache=root)
artifacts = [registry.run_experiment(name, warm) for name in registry.list_experiments()]
store.ShardStore(root).save(store.ColumnarStudy.from_study(warm))
shard, _ = store.shard_for_config(config, cache_root=root, build=False)
service = store.StudyService(shard)
bodies = [service.answer_bytes(name, params) for name, params in queries]
print(json.dumps({
    "from_cache": [cold.from_cache, warm.from_cache],
    "artifacts": len(artifacts),
    "answers": len(bodies),
    "imported": sorted(name for name in set(sys.modules) - before
                       if name.startswith("repro")),
}))
"""


def test_nothing_is_imported_in_timed_code(tmp_path):
    """After the benchmark's set-up imports, a cold study, a warm one, all
    18 artifacts and the seven shard queries import no ``repro`` module."""
    found = _run(TIMED, str(tmp_path), json.dumps(QUICK), json.dumps(QUERIES))
    assert found["from_cache"] == [False, True]
    assert found["artifacts"] == 18 and found["answers"] == len(QUERIES)
    assert found["imported"] == []


COLD = """
import json, sys
import repro.analysis.pipeline as pipeline

config = pipeline.StudyConfig.from_scenario("standard", **json.loads(sys.argv[2]))
assert not pipeline.run_study(config, cache=sys.argv[1]).from_cache
print(json.dumps(sorted(name for name in sys.modules if name.startswith("repro"))))
"""


def test_cold_study_loads_only_fingerprinted_or_excluded_modules(tmp_path):
    """Every module a cold study loads is in the code fingerprint or
    excluded from it on purpose, so no lazily resolved name hides a stage
    dependency from the cache key.  The one allowance is the shard query
    plane: ``repro.store``'s ``__init__`` imports ``store.service`` (and
    what it imports) with any ``repro.store`` module, and that code only
    reads finished studies."""
    loaded = set(_run(COLD, str(tmp_path), json.dumps(QUICK)))
    packages = set(_packages())
    query_plane = import_closure.closure("repro.store.service")
    unkeyed = loaded - packages - set(STAGE_MODULES) - EXCLUDED - query_plane
    assert unkeyed == set()
    assert "repro.analysis.pipeline" in loaded and "repro.cache.study" in loaded


def test_fingerprint_equals_the_import_based_digest():
    """Finding each stage module's source with ``find_spec`` digests the
    same files as importing it and asking ``inspect``."""
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(__version__.encode("utf-8"))
    for name in STAGE_MODULES:
        source = inspect.getsourcefile(importlib.import_module(name))
        hasher.update(name.encode("utf-8"))
        hasher.update(fingerprint.digest_file(source).encode("ascii"))
    fingerprint._fingerprint.cache_clear()
    assert fingerprint.code_fingerprint() == hasher.hexdigest()


def test_fingerprint_rejects_a_missing_module():
    with pytest.raises(ModuleNotFoundError, match="repro.nids.no_such_module"):
        fingerprint.code_fingerprint(("repro.nids.no_such_module",))
