"""What importing the serving path loads.

A CPL top level or a CGI front end imports the program on every start, and
the benchmark's ``setup_s`` includes that import.  It loads only what answering
a query needs: no optional substrate (ACE, flat files, BLAST, the view
gateway, the spill machinery) and no stdlib module that only one rare path
uses.  Those load on first use — and still work.
"""

import json
import os
import pathlib
import subprocess
import sys

from repro.kleisli.engine import KleisliEngine
from repro.kleisli.drivers import EntrezDriver, RelationalDriver
from repro.server import KleisliClient, KleisliServer
from repro.views import ViewRegistry, build_mapsearch_view

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: What ``benchmarks/e2e/run.py`` times as "import of the program".
SERVING_PATH = ("repro.server", "repro.kleisli.session", "repro.kleisli.drivers",
                "repro.bio.chromosome22")

#: Each of these, and every module under it, stays off the serving path.
NOT_ON_THE_SERVING_PATH = (
    "dataclasses", "inspect", "pickle", "uuid", "html", "hashlib",
    "repro.ace", "repro.formats", "repro.views", "repro.kleisli.spill",
    "repro.kleisli.drivers.ace", "repro.kleisli.drivers.flatfile",
    "repro.kleisli.drivers.blast",
)

_PROBE = """
import json, sys
before = set(sys.modules)
for name in sys.argv[1:]:
    __import__(name)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _modules_added_by(*names):
    """The modules a fresh interpreter loads to import ``names``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _PROBE, *names], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return set(json.loads(done.stdout))


def test_the_serving_path_loads_no_optional_substrate():
    added = _modules_added_by(*SERVING_PATH)
    assert set(SERVING_PATH) <= added
    stray = sorted(name for name in added for banned in NOT_ON_THE_SERVING_PATH
                   if name == banned or name.startswith(banned + "."))
    assert stray == []


def test_the_optional_drivers_load_on_first_use():
    import repro.kleisli.drivers as drivers
    from repro.kleisli.drivers import AceDriver, BlastDriver, FlatFileDriver

    assert drivers.__all__ == ["Driver", "DriverFunction", "RelationalDriver",
                               "EntrezDriver", "AceDriver", "FlatFileDriver",
                               "BlastDriver"]
    for name, driver in (("ace", AceDriver), ("flatfile", FlatFileDriver),
                         ("blast", BlastDriver)):
        assert driver.__module__ == f"repro.kleisli.drivers.{name}"
        assert getattr(drivers, driver.__name__) is driver
    try:
        drivers.NoSuchDriver
    except AttributeError as error:
        assert "NoSuchDriver" in str(error)
    else:
        raise AssertionError("an unknown name must raise AttributeError")


def test_the_view_op_still_serves_the_map_search_view(chr22_dataset):
    engine = KleisliEngine()
    engine.register_driver(RelationalDriver("GDB", chr22_dataset.gdb))
    engine.register_driver(EntrezDriver("GenBank", chr22_dataset.genbank))
    registry = ViewRegistry()
    registry.register(build_mapsearch_view())
    with KleisliServer(engine, view_registry=registry) as server, \
            KleisliClient(server.address) as client:
        assert "<form" in client.view("mapsearch1")["body"]
        reply = client.view("mapsearch1", {"chromosome": "22", "band": "any"})
        assert reply["status"] == 200 and reply["view_ok"] is True
        rows = list(reply["value"])
        assert rows and all(set(row.labels) == {"locus-symbol", "band", "genbank-ref",
                                                "homologs"} for row in rows)
