"""Harness-level tests: utilization reports and setup wiring."""

import pytest

from repro.experiments import RunConfig, run_point
from repro.experiments.setups import SETUPS
from repro.workloads import generate_namespace

_CFG = RunConfig(
    clients_per_server=8,
    warmup_ms=4.0,
    window_ms=8.0,
    namespace_top_dirs=2,
    namespace_dirs_per_top=4,
    namespace_files_per_dir=6,
)


def test_hopsfs_report_has_thread_breakdown():
    point = run_point("HopsFS (2,1)", 2, config=_CFG)
    threads = point.resource.ndb_thread_cpu_pct
    assert set(threads) == {"ldm", "tc", "recv", "send", "rep", "io", "main"}
    assert threads["ldm"] > 0
    assert point.resource.window_ms == pytest.approx(8.0)


def test_hopsfs_single_az_has_zero_cross_az_traffic():
    point = run_point("HopsFS (2,1)", 2, config=_CFG)
    assert point.resource.cross_az_mb == 0.0
    assert point.resource.intra_az_mb > 0.0


def test_cephfs_report_storage_is_osd():
    point = run_point("CephFS", 2, config=_CFG)
    # OSDs barely work on a metadata benchmark (Fig. 10a / 12)
    assert point.resource.storage_cpu_pct < 20.0
    # the single-threaded MDS cannot use its 32-core host (Fig. 10b)
    assert point.resource.server_cpu_pct < 20.0


def test_hopsfs_cl_setups_use_read_backup_tables():
    adapter = SETUPS["HopsFS-CL (3,3)"].build(1, seed=0)
    schema = adapter.deployment.ndb.schema
    assert all(t.read_backup for t in schema.tables())
    vanilla = SETUPS["HopsFS (3,3)"].build(1, seed=0)
    assert not any(t.read_backup for t in vanilla.deployment.ndb.schema.tables())


def test_setup_ndb_layout_matches_paper():
    adapter = SETUPS["HopsFS (2,1)"].build(1, seed=0)
    ndb = adapter.deployment.ndb
    assert ndb.config.num_datanodes == 12  # Section V-A: 12 NDB datanodes
    assert ndb.config.threads.total == 27  # Table II


def test_cephfs_setup_has_twelve_osds():
    adapter = SETUPS["CephFS"].build(1, seed=0)
    assert len(adapter.cluster.osds) == 12  # "12 OSD nodes similar to NDB"
    assert adapter.cluster.config.osd_replication == 3


def test_chaos_dirpinned_pins_like_the_figure_harness():
    # One install for both tunings: the chaos-tuned DirPinned setup gets
    # the operator's pin table too, not the dynamic balancer's placement.
    namespace = generate_namespace(num_top_dirs=3, dirs_per_top=4, files_per_dir=2, seed=0)
    tables = []
    for chaos in (False, True):
        harness = SETUPS["CephFS - DirPinned"].build(3, seed=0, chaos=chaos)
        harness.install(namespace)
        tables.append(harness.cluster.partitioner.pin_table)
    figure, chaos = tables
    assert figure
    assert chaos == figure
