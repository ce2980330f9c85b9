"""What importing the serving path, and serving on it, loads.

A CPL top level or a CGI front end imports the program on every start, and
the benchmark's ``setup_s`` includes that import.  It loads only what answering
a query needs: no optional substrate (ACE, flat files, BLAST, the view
gateway, the spill machinery) and no stdlib module that only one rare path
uses.  Those load on first use — and still work.  A source's own substrate
(the relational engine behind GDB, the ASN.1 machinery behind Entrez) loads
when that source is built, so serving a local query loads neither.

Serving then maps no native library a query does not use: a content-derived
subquery-cache key is a fingerprint, not a digest (no OpenSSL), and the
client connects to an ASCII host without the IDNA codec.  Nor does a query
leave a reference cycle behind: what only the cyclic collector frees stays
resident until a collection happens to run.
"""

import gc
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

from repro.bio.chromosome22 import build_chromosome22
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.drivers import EntrezDriver, RelationalDriver
from repro.kleisli.session import Session
from repro.server import KleisliClient, KleisliServer
from repro.views import ViewRegistry, build_mapsearch_view

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: What ``benchmarks/e2e/run.py`` times as "import of the program".
SERVING_PATH = ("repro.server", "repro.kleisli.session", "repro.kleisli.drivers",
                "repro.bio.chromosome22")

#: Each of these, and every module under it, stays off the serving path.
NOT_ON_THE_SERVING_PATH = (
    "dataclasses", "inspect", "pickle", "uuid", "html", "hashlib",
    "repro.ace", "repro.formats", "repro.views", "repro.kleisli.spill",
    "repro.relational", "repro.asn1",
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


#: None of these is loaded by serving a query: OpenSSL (a subquery-cache key
#: is no digest), TLS, the IDNA codec with what it pulls in, a thread pool
#: with its logging (a remote loop's tasks go to the engine's workers), and
#: ``pickle`` (a run keeps its cached subqueries as they are, unsized).
NOT_ON_THE_REQUEST_PATH = ("hashlib", "_hashlib", "_ssl", "encodings.idna",
                           "stringprep", "unicodedata", "concurrent.futures",
                           "logging", "traceback", "pickle", "_pickle")

#: One operation of each shape the end-to-end benchmark serves, through a
#: client in the server's process, with the DOE query's two drivers declared
#: remote but sleeping nothing: over 120 loci (the benchmark's count) each
#: of its two bind joins sends two batches through a window.  Prints the
#: answer sizes, the cached-subquery hits the runs counted and every module
#: loaded by then.
_SERVE = """
import json, sys
given = json.load(sys.stdin)
from repro.bio.chromosome22 import build_chromosome22
from repro.kleisli.drivers import EntrezDriver, RelationalDriver
from repro.kleisli.engine import KleisliEngine
from repro.server import KleisliClient, KleisliServer

data = build_chromosome22(locus_count=120, homologues_per_entry=1,
                          sequence_length=60, publication_count=5, seed=22)
engine = KleisliEngine()
engine.register_driver(RelationalDriver.with_latency(
    "GDB", data.gdb, latency=0.0, max_concurrent_requests=4), latency=0.002)
engine.register_driver(EntrezDriver.with_latency(
    "GenBank", data.genbank, latency=0.0, max_concurrent_requests=4), latency=0.002)

def set_up(session):
    for name, (rows, list_as) in given["tables"].items():
        session.bind(name, rows, list_as=list_as)
    for definition in given["defines"]:
        session.run(definition)

with KleisliServer(engine, session_setup=set_up) as server, \\
        KleisliClient(server.address) as client:
    answers, cached = [], 0
    for text in given["queries"]:
        answers.append(len(client.query(text)))
        cached += engine.last_eval_statistics.cache_hits
    answers += [len(client.fetch(client.open(text), 16)["values"])
                for text in given["cursors"]]
print(json.dumps({"answers": answers, "cached": cached,
                  "modules": sorted(sys.modules)}))
"""

#: In a fresh interpreter: import the serving path, serve one operation of
#: each local shape, then build GDB and GenBank and query each directly.
#: Prints the answers and, after each step, which substrates are loaded.
_SUBSTRATES = """
import json, sys
given = json.load(sys.stdin)
loaded = {}

def note(step):
    loaded[step] = sorted(name for name in sys.modules
                          if name.split(".")[:2] in (["repro", "relational"],
                                                     ["repro", "asn1"]))

for name in given["serving_path"]:
    __import__(name)
note("imported")

from repro.kleisli.engine import KleisliEngine
from repro.server import KleisliClient, KleisliServer

def set_up(session):
    for name, (rows, list_as) in given["tables"].items():
        session.bind(name, rows, list_as=list_as)

with KleisliServer(KleisliEngine(), session_setup=set_up) as server, \\
        KleisliClient(server.address) as client:
    answers = [len(client.query(text)) for text in given["queries"]]
    answers += [len(client.fetch(client.open(text), 16)["values"])
                for text in given["cursors"]]
note("served")

from repro.bio.gdb import build_gdb
gdb = build_gdb(locus_count=20)
note("gdb")
answers.append(len(gdb.sql("select locus_id from locus where chromosome = '22'")))

from repro.bio.genbank import build_genbank
from repro.kleisli.drivers import EntrezDriver
from repro.kleisli.session import Session

genbank = build_genbank([1, 2, 3], homologues_per_entry=1, sequence_length=60,
                        compute_links=False)
note("genbank")
session = Session()
session.register_driver(EntrezDriver("GenBank", genbank))
answers.append(len(session.query(
    'GenBank([db = "na", select = "chromosome 22", path = "Seq-entry.seq.id..giim"])'
).value))
print(json.dumps({"answers": answers, "loaded": loaded}))
"""


def _modules_added_by(*names):
    """The modules a fresh interpreter loads to import ``names``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _PROBE, *names], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return set(json.loads(done.stdout))


def _workloads():
    """The end-to-end benchmark's workload module."""
    spec = importlib.util.spec_from_file_location(
        "e2e_workloads", ROOT / "benchmarks" / "e2e" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up by name
    spec.loader.exec_module(workloads)
    return workloads


def _local_operations(workloads):
    """One operation of each local shape the benchmark serves, over its own
    tables (the cursors' over fewer rows): the three relational parts, an
    ad-hoc ``member`` query, the union cursor and the wide cursor."""
    local = workloads.build("local_relational", 22)
    adhoc = workloads.build("adhoc_cold", 22, seconds=0)
    # The ad-hoc ``member`` template, with constants that keep rows.
    member = ('{g.sym | \\g <- G, g.score > 0,'
              ' member(g.id, {h.gene | \\h <- H, h.len < 4000})}')
    streamed = dict(workloads.build("union_dedup", 22).bindings,
                    **workloads.build("wide_stream", 22).bindings)
    return {"tables": dict(local.bindings, **adhoc.bindings,
                           **{name: (rows[:64], list_as)
                              for name, (rows, list_as) in streamed.items()}),
            "queries": [text for _, text in local.ops[0].parts] + [member],
            "cursors": [workloads.UNION_QUERY, workloads.WIDE_QUERY]}


def _served_operations():
    """What :data:`_SERVE` binds, defines and sends: the local operations
    and the DOE query with its definitions."""
    workloads = _workloads()
    served = _local_operations(workloads)
    served["defines"] = [workloads.LOCI22, workloads.ASN_IDS]
    served["queries"].append(workloads.DOE_QUERY)
    return served


def test_the_serving_path_loads_no_optional_substrate():
    added = _modules_added_by(*SERVING_PATH)
    assert set(SERVING_PATH) <= added
    stray = sorted(name for name in added for banned in NOT_ON_THE_SERVING_PATH
                   if name == banned or name.startswith(banned + "."))
    assert stray == []


def test_serving_maps_no_native_library_a_query_does_not_use():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _SERVE], env=env,
                          input=json.dumps(_served_operations()),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    served = json.loads(done.stdout)
    assert all(served["answers"]), served["answers"]   # every shape found rows
    assert served["cached"] > 0     # and a run hit its cached subquery
    assert "repro.kleisli.scheduler" in served["modules"]  # and a window
    loaded = [name for name in NOT_ON_THE_REQUEST_PATH
              if name in served["modules"]]
    assert not loaded, f"loaded by serving: {loaded}"


def _serving_session(served, data):
    """A fresh engine and session over ``data`` set up as :data:`_SERVE`
    sets its sessions up."""
    engine = KleisliEngine()
    engine.register_driver(RelationalDriver.with_latency(
        "GDB", data.gdb, latency=0.0, max_concurrent_requests=4), latency=0.002)
    engine.register_driver(EntrezDriver.with_latency(
        "GenBank", data.genbank, latency=0.0, max_concurrent_requests=4),
        latency=0.002)
    session = Session(engine)
    for name, (rows, list_as) in served["tables"].items():
        session.bind(name, rows, list_as=list_as)
    for definition in served["defines"]:
        session.run(definition)
    return session


def _serve_in_process(session, served):
    for text in served["queries"] + served["cursors"]:
        assert session.query(text).value
        assert list(session.stream(text))
    assert session.query(served["queries"][-1], profile=True).value
    assert session.last_profile.drivers     # the DOE query, profiled


def test_a_query_leaves_no_reference_cycle():
    served = _served_operations()
    data = build_chromosome22(locus_count=120, homologues_per_entry=1,
                              sequence_length=60, publication_count=5, seed=22)
    # Cold: the imports of the first serve must leave no garbage either.
    session = _serving_session(served, data)
    gc.collect()
    gc.disable()
    try:
        _serve_in_process(session, served)      # every text's first send
        assert gc.collect() == 0
    finally:
        gc.enable()


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


def test_a_source_loads_its_substrate_when_it_is_built():
    given = dict(_local_operations(_workloads()), serving_path=SERVING_PATH)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _SUBSTRATES], env=env,
                          input=json.dumps(given), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    ran = json.loads(done.stdout)
    assert all(ran["answers"]), ran["answers"]   # every step found rows
    loaded = {step: {name.split(".")[1] for name in names}
              for step, names in ran["loaded"].items()}
    assert loaded == {"imported": set(), "served": set(),
                      "gdb": {"relational"}, "genbank": {"relational", "asn1"}}


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
