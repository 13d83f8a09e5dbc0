"""The package front door: ``import repro`` loads nothing it does not use.

``repro``, ``repro.api`` and ``repro.explore`` are lazy façades
(:mod:`repro._lazy`): every public name is imported from its home module
on first access.  Each check runs in a fresh interpreter, because this
test process has long since imported everything.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGES = ("repro", "repro.api", "repro.explore")

#: The submodules a bare ``import repro`` has always bound as attributes.
SUBMODULES = ("api", "area", "columns", "energy", "exceptions", "exec",
              "explore", "hw", "memlib", "resilience", "sim", "sw", "tech",
              "units")

#: Heavy modules no bare ``import repro`` may load.
NOT_LOADED = ("repro.api.simulator", "repro.exec", "repro.explore.engine",
              "repro.hw.analog", "numpy")


def _fresh(code):
    """Run ``code`` in a fresh interpreter; the JSON it prints last."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path
               else os.pathsep.join([src, path]))
    output = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True, env=env,
                            timeout=120).stdout
    return json.loads(output.strip().splitlines()[-1])


def test_bare_import_loads_nothing_heavy():
    loaded = _fresh(
        "import json, sys, repro\n"
        f"print(json.dumps([m for m in {NOT_LOADED!r} if m in sys.modules]))")
    assert loaded == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_is_its_home_module_object(package):
    """Each name resolves to the object its home module defines (a
    class or function by its own module and name; a constant or a
    submodule by identity with a ``repro`` module's binding), is cached
    in the package after the first access, and is listed by ``dir``."""
    report = _fresh(f"""
import importlib, json, sys, types
package = importlib.import_module({package!r})
bad = []
for name in package.__all__:
    value = getattr(package, name)
    cached = vars(package).get(name) is value
    module = getattr(value, "__module__", None)
    if isinstance(value, types.ModuleType):
        home = value is sys.modules.get(package.__name__ + "." + name)
    elif isinstance(module, str) and \\
            getattr(value, "__qualname__", None) == name:
        home = module != package.__name__ and \\
            getattr(importlib.import_module(module), name) is value
    else:
        home = any(vars(other).get(name) is value
                   for key, other in list(sys.modules.items())
                   if key.startswith("repro.") and other is not package
                   and key not in {PACKAGES!r})
    if not (cached and home and name in dir(package)):
        bad.append([name, cached, home])
print(json.dumps({{"count": len(package.__all__), "bad": bad}}))
""")
    assert report["count"] > 0
    assert report["bad"] == []


def test_dir_lists_the_public_names_and_submodules():
    listed = _fresh(
        "import json, repro\n"
        "print(json.dumps([dir(repro), repro.__all__]))")
    names, public = listed
    assert set(public) <= set(names)
    assert set(SUBMODULES) <= set(names)


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_attribute_raises_attribute_error(package):
    outcome = _fresh(f"""
import importlib, json
package = importlib.import_module({package!r})
try:
    package.no_such_name
except AttributeError as error:
    print(json.dumps(str(error)))
else:
    print(json.dumps(None))
""")
    assert outcome is not None and "no_such_name" in outcome


def test_star_import_binds_every_public_name():
    missing = _fresh(
        "import json, repro\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "print(json.dumps([n for n in repro.__all__ "
        "if namespace.get(n) is not getattr(repro, n)]))")
    assert missing == []


def test_submodules_resolve_after_a_bare_import():
    resolved = _fresh(
        "import json, sys, repro\n"
        f"print(json.dumps([getattr(repro, name) is sys.modules["
        f"'repro.' + name] for name in {SUBMODULES!r}]))")
    assert resolved == [True] * len(SUBMODULES)


@pytest.mark.parametrize("package, submodules", [
    ("repro.api", ("design", "diskcache", "registry", "result",
                   "serialize", "simulator", "spec")),
    ("repro.explore", ("annotate", "engine", "metrics", "space", "spec")),
])
def test_home_modules_resolve_as_attributes(package, submodules):
    """``import repro.explore; repro.explore.engine`` keeps working."""
    resolved = _fresh(
        "import importlib, json, sys\n"
        f"package = importlib.import_module({package!r})\n"
        f"print(json.dumps([getattr(package, name) is sys.modules["
        f"{package!r} + '.' + name] for name in {submodules!r}]))")
    assert resolved == [True] * len(submodules)


def test_one_usecase_loads_no_other():
    """``repro.usecases`` is a lazy façade too: ``repro fig5`` pays for
    the Fig. 5 builder only."""
    others = ("rhythmic", "edgaze", "edgaze_mixed", "threelayer")
    loaded = _fresh(
        "import json, sys, repro.usecases.fig5\n"
        f"print(json.dumps([m for m in {others!r} "
        "if 'repro.usecases.' + m in sys.modules]))")
    assert loaded == []


def test_usecase_names_are_their_home_module_objects():
    """The same names as the eager package had, each its home module's
    object (the two constants live in ``repro.usecases.common``)."""
    report = _fresh("""
import importlib, json
import repro.usecases as package
bad = []
for name in package.__all__:
    value = getattr(package, name)
    own = getattr(value, "__qualname__", None) == name
    home = value.__module__ if own else "repro.usecases.common"
    if getattr(importlib.import_module(home), name) is not value:
        bad.append(name)
print(json.dumps({"names": package.__all__, "bad": bad}))
""")
    assert report["bad"] == []
    assert report["names"] == [
        "UseCaseConfig", "CIS_NODES", "HOST_NODE", "build_rhythmic",
        "run_rhythmic", "rhythmic_configs", "rhythmic_space",
        "build_edgaze", "run_edgaze", "edgaze_configs", "edgaze_space",
        "build_edgaze_mixed", "run_edgaze_mixed", "build_fig5_design",
        "run_fig5", "build_three_layer", "run_three_layer"]


def test_a_thread_session_loads_no_process_machinery():
    """The process pool is imported where the process backend builds
    it, so a session that never pools processes does not pay for
    ``multiprocessing``."""
    modules = ("concurrent.futures.process", "multiprocessing.connection")
    loaded = _fresh(
        "import json, sys, repro.usecases.fig5\n"
        "from repro.api import Simulator\n"
        "with Simulator(executor='thread') as sim:\n"
        "    assert sim.run(repro.usecases.fig5.build_fig5_design()).ok\n"
        f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))")
    assert loaded == []
