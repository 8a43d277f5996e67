"""The nine deployments of Section V-A, one harness per stack.

Setup naming follows the paper: ``HopsFS (R, Z)`` is vanilla HopsFS with
NDB replication factor R deployed over Z AZs; ``HopsFS-CL (R, Z)`` is the
AZ-aware redesign; the three CephFS variants differ in balancing and
client caching.

:meth:`SetupSpec.build` lays a setup out and wraps it in a
:class:`Harness`: the one object the experiment runner, the scale engine
and the fault injector all drive.  A build is tuned either for the
figures or for chaos runs; both tunings are data records below.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from ..cephfs import CephConfig, build_cephfs
from ..errors import ReproError
from ..hopsfs import SMALL_FILE_MAX_BYTES, HopsFsConfig, build_hopsfs
from ..metrics.utilization import ResourceReport, per_az_utilization
from ..ndb import NdbConfig
from ..types import AzId, NodeAddress, NodeKind
from ..workloads.namespace import Namespace, install_cephfs, install_hopsfs

__all__ = [
    "SetupSpec",
    "SETUPS",
    "Harness",
    "HopsFsHarness",
    "CephHarness",
    "setup_slug",
    "resolve_setup",
]

_MB = 1000.0  # bytes/ms -> MB/s divisor

# Aggregate inter-AZ fabric capacity (bytes/ms, all cross-AZ traffic).
# Inter-AZ bandwidth is the scarce resource of Section III (C2); this value
# is calibrated so that the non-AZ-aware 3-AZ HopsFS setups lose ~17-22% at
# scale (Fig. 5) while the AZ-aware setups, whose reads stay AZ-local, are
# unaffected ("network I/O becomes a bottleneck", Section V-B1).
AZ_LINK_BANDWIDTH_BYTES_PER_MS = 1_800_000.0


@dataclass(frozen=True)
class _Tuning:
    """What a build is for: the knobs layered over a setup's layout."""

    ndb: dict  # NdbConfig fields besides replication and AZ awareness
    hopsfs: dict  # HopsFsConfig fields besides the opt-in features
    ceph: dict  # CephConfig fields besides the setup's own
    block_datanodes_per_az: int = 0
    heartbeats: bool = False
    az_link_bandwidth_bytes_per_ms: Optional[float] = None


# The paper's deployments (Section V-A), timed for the figures.
_FIGURE_TUNING = _Tuning(
    ndb={"num_datanodes": 12},
    hopsfs={"election_period_ms": 100.0},
    ceph={},
    az_link_bandwidth_bytes_per_ms=AZ_LINK_BANDWIDTH_BYTES_PER_MS,
)

# The same layouts with failure detection cranked down (millisecond
# heartbeats, fast elections and MDS failover detection) so fault
# scenarios resolve within short simulated horizons, and with a block
# layer under HopsFS so AZ-aware re-replication is exercised.
_CHAOS_TUNING = _Tuning(
    ndb={"num_datanodes": 6, "heartbeat_interval_ms": 10.0,
         "deadlock_timeout_ms": 100.0, "inactive_timeout_ms": 120.0},
    hopsfs={"election_period_ms": 50.0, "op_cost_read_ms": 0.02,
            "op_cost_mutation_ms": 0.04, "dn_heartbeat_interval_ms": 10.0},
    ceph={"mds_failover_detect_ms": 20.0},
    block_datanodes_per_az=2,
    heartbeats=True,
)


@dataclass(frozen=True)
class SetupSpec:
    """Declarative description of one benchmark deployment."""

    name: str
    kind: str  # 'hopsfs' | 'cephfs'
    replication: int = 2
    azs: tuple[AzId, ...] = (2,)
    az_aware: bool = False
    dir_pinning: bool = False
    kclient_cache: bool = True

    def build(self, num_servers: int, seed: int = 0, *, chaos: bool = False,
              robust=None, async_commit=None, elastic=None,
              listing_cache=None) -> "Harness":
        """Lay this setup out with ``num_servers`` metadata servers.

        ``chaos`` picks the chaos tuning over the figure tuning.  The
        remaining arguments opt the HopsFS request path into its features:
        gray-failure hardening (a :class:`~repro.hopsfs.RobustConfig`),
        group commit (:class:`~repro.hopsfs.AsyncCommitConfig`), runtime
        NN membership (:class:`~repro.hopsfs.ElasticConfig`) and the
        listing cache (:class:`~repro.hopsfs.ListingCacheConfig`).  CephFS
        has no equivalent knobs and ignores them.
        """
        tuning = _CHAOS_TUNING if chaos else _FIGURE_TUNING
        if self.kind == "hopsfs":
            deployment = build_hopsfs(
                num_namenodes=num_servers,
                azs=self.azs,
                az_aware=self.az_aware,
                num_block_datanodes=tuning.block_datanodes_per_az * len(self.azs),
                ndb_config=NdbConfig(replication=self.replication,
                                     az_aware=self.az_aware, **tuning.ndb),
                hopsfs_config=HopsFsConfig(
                    robust=robust, async_commit=async_commit, elastic=elastic,
                    listing_cache=listing_cache, **tuning.hopsfs),
                heartbeats=tuning.heartbeats,
                seed=seed,
                az_link_bandwidth_bytes_per_ms=tuning.az_link_bandwidth_bytes_per_ms,
            )
            return HopsFsHarness(self, deployment)
        cluster = build_cephfs(
            num_mds=num_servers,
            azs=self.azs,
            config=CephConfig(osd_replication=self.replication,
                              dir_pinning=self.dir_pinning,
                              kclient_cache=self.kclient_cache, **tuning.ceph),
            seed=seed,
            az_link_bandwidth_bytes_per_ms=tuning.az_link_bandwidth_bytes_per_ms,
        )
        return CephHarness(self, cluster)


# The nine setups of the evaluation (Section V-A / Fig. 5).
SETUPS: dict[str, SetupSpec] = {
    "HopsFS (2,1)": SetupSpec("HopsFS (2,1)", "hopsfs", 2, (2,), az_aware=False),
    "HopsFS (3,1)": SetupSpec("HopsFS (3,1)", "hopsfs", 3, (2,), az_aware=False),
    "HopsFS (2,3)": SetupSpec("HopsFS (2,3)", "hopsfs", 2, (2, 3), az_aware=False),
    "HopsFS (3,3)": SetupSpec("HopsFS (3,3)", "hopsfs", 3, (1, 2, 3), az_aware=False),
    "HopsFS-CL (2,3)": SetupSpec("HopsFS-CL (2,3)", "hopsfs", 2, (2, 3), az_aware=True),
    "HopsFS-CL (3,3)": SetupSpec("HopsFS-CL (3,3)", "hopsfs", 3, (1, 2, 3), az_aware=True),
    "CephFS": SetupSpec("CephFS", "cephfs", 3, (1, 2, 3)),
    "CephFS - DirPinned": SetupSpec(
        "CephFS - DirPinned", "cephfs", 3, (1, 2, 3), dir_pinning=True
    ),
    "CephFS - SkipKCache": SetupSpec(
        "CephFS - SkipKCache", "cephfs", 3, (1, 2, 3), kclient_cache=False
    ),
}


def setup_slug(name: str) -> str:
    """CLI-friendly slug for a setup name: ``HopsFS-CL (3,3)`` -> ``hopsfs-cl-3-3``."""
    return re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")


_SLUGS = {setup_slug(name): name for name in SETUPS}


def resolve_setup(name: str) -> str:
    """Canonical pretty name for a setup given either that name or its slug."""
    if name in SETUPS:
        return name
    slug = setup_slug(name)
    if slug in _SLUGS:
        return _SLUGS[slug]
    raise ReproError(f"unknown setup {name!r} (try one of: {', '.join(sorted(_SLUGS))})")


class Harness:
    """One built deployment: what the runner and the fault injector drive.

    The runner installs a namespace, waits for ``ready``, hands out clients
    and snapshots utilization around its window; the injector crashes and
    recovers daemons through the fault surface.  Everything that touches
    several nodes iterates in sorted address order, so fault execution is
    deterministic regardless of dict/set history.
    """

    kind = "abstract"
    # Closed-loop clients per metadata server the runner starts; None
    # keeps the run config's count.
    preferred_clients_per_server: Optional[int] = None

    def __init__(self, spec: SetupSpec, env, network, nodes):
        self.spec = spec
        self.name = spec.name
        self.azs = spec.azs
        self.env = env
        self.network = network
        self._by_addr = {node.addr: node for node in nodes}
        # Every client handed out by make_client(); the deadline-compliance
        # invariant audits their recorded overruns after the run.
        self.clients: list = []

    # -- stack surface -------------------------------------------------------
    def install(self, namespace: Namespace) -> int:
        raise NotImplementedError

    def _new_client(self, az: Optional[AzId]):
        raise NotImplementedError

    def warm_client_caches(self, clients, workload) -> None:
        raise NotImplementedError

    def _storage_addrs(self) -> list[NodeAddress]:
        raise NotImplementedError

    def _server_addrs(self) -> list[NodeAddress]:
        raise NotImplementedError

    def _disk_bytes(self) -> dict:
        """``{storage addr: (bytes read, bytes written)}`` so far."""
        raise NotImplementedError

    def _load_snapshot(self) -> dict:
        """CPU and request counters ``_fill_cpu`` diffs against."""
        raise NotImplementedError

    def _fill_cpu(self, report: ResourceReport, snap: dict, window: float) -> None:
        raise NotImplementedError

    # -- runner interface ----------------------------------------------------
    def ready(self):
        yield self.env.timeout(0)

    def make_client(self, az: Optional[AzId] = None):
        """A client host in ``az``; AZs rotate over the setup's by default."""
        client = self._new_client(az)
        self.clients.append(client)
        return client

    def make_clients(self, count: int) -> list:
        return [self.make_client() for _ in range(count)]

    def mds_requests_since(self, snap: dict) -> Optional[int]:
        """Metadata requests served since ``snap`` (CephFS only)."""
        return None

    def utilization_snapshot(self) -> dict:
        return {
            "t": self.env.now,
            **self._load_snapshot(),
            "disk": self._disk_bytes(),
            "traffic": self.network.traffic.snapshot(),
        }

    def utilization_report(self, snap: dict) -> ResourceReport:
        window = self.env.now - snap["t"]
        report = ResourceReport(window_ms=window)
        if window <= 0:
            return report
        self._fill_cpu(report, snap, window)
        delta = self.network.traffic.delta_since(snap["traffic"])
        storage = self._storage_addrs()
        servers = self._server_addrs()
        report.storage_net_read_mb_s = _avg_mb_s(delta, storage, window, "received")
        report.storage_net_write_mb_s = _avg_mb_s(delta, storage, window, "sent")
        report.server_net_read_mb_s = _avg_mb_s(delta, servers, window, "received")
        report.server_net_write_mb_s = _avg_mb_s(delta, servers, window, "sent")
        base = snap["disk"]
        disk = self._disk_bytes().items()
        writes = sum(w - base.get(addr, (0, 0))[1] for addr, (_r, w) in disk)
        reads = sum(r - base.get(addr, (0, 0))[0] for addr, (r, _w) in disk)
        n = max(1, len(storage))
        report.storage_disk_write_mb_s = writes / n / window / _MB
        report.storage_disk_read_mb_s = reads / n / window / _MB
        report.cross_az_mb = delta.cross_az_bytes / 1e6
        report.intra_az_mb = delta.intra_az_bytes / 1e6
        report.per_az = per_az_utilization(
            delta, storage, servers, self.network.topology.az_of, window
        )
        return report

    # -- fault surface -------------------------------------------------------
    def _nodes(self) -> dict:
        return self._by_addr

    def _node(self, addr: NodeAddress):
        node = self._nodes().get(addr)
        if node is None:
            raise ReproError(f"{self.name}: no such node {addr}")
        return node

    def managed_addrs(self) -> list[NodeAddress]:
        return sorted(self._nodes())

    def is_running(self, addr: NodeAddress) -> bool:
        return self._nodes()[addr].running

    def crash(self, addr: NodeAddress) -> None:
        self._node(addr).shutdown()

    def recover(self, addr: NodeAddress):
        """Generator: bring one crashed daemon back."""
        self._node(addr).restart()
        yield self.env.timeout(0)

    def on_heal(self) -> None:
        """Stack-specific epilogue to a partition heal."""

    def seed_blocks(self, count: int):
        """Generator: create block-layer state pre-fault; returns how many."""
        yield self.env.timeout(0)
        return 0

    def server_node_ids(self) -> list[str]:
        """Metadata-server node ids, for rolling-restart schedules."""
        return [str(addr) for addr in self._server_addrs()]

    # Elastic membership: HopsFS only (CephFS has no stateless metadata
    # worker that can join or leave at runtime here).
    def add_namenode(self, az) -> str:
        raise ReproError(f"{self.name}: elastic NN membership not supported")

    def decommission_namenode(self, addr: NodeAddress) -> str:
        raise ReproError(f"{self.name}: elastic NN membership not supported")

    def preempt_namenode(self, addr: NodeAddress, warning_ms: float) -> str:
        raise ReproError(f"{self.name}: elastic NN membership not supported")


class HopsFsHarness(Harness):
    """A HopsFS / HopsFS-CL deployment: NDB datanodes, management nodes,
    namenodes and block datanodes."""

    kind = "hopsfs"

    def __init__(self, spec: SetupSpec, deployment):
        ndb = deployment.ndb
        super().__init__(spec, deployment.env, deployment.network, [
            *ndb.datanodes.values(), *ndb.mgmt_nodes,
            *deployment.namenodes, *deployment.block_datanodes,
        ])
        self.deployment = deployment

    def ready(self):
        yield from self.deployment.await_election()

    def install(self, namespace: Namespace) -> int:
        return install_hopsfs(self.deployment, namespace)

    def _new_client(self, az):
        return self.deployment.client(az)

    def warm_client_caches(self, clients, workload) -> None:
        """Steady-state listing caches: snapshot-bootstrapped, stream-fresh.

        The paper's NN pre-materializes its cache when it subscribes to the
        changelog, long before any measurement window; replaying that cold
        start every run would measure bootstrap, not the serving regime.
        No-op when the cache is disabled.
        """
        self.deployment.prewarm_listing_caches()

    # -- utilization ---------------------------------------------------------
    def _storage_addrs(self):
        return list(self.deployment.ndb.datanodes)

    def _server_addrs(self):
        return [nn.addr for nn in self.deployment.namenodes]

    def _disk_bytes(self):
        return self.deployment.ndb.disk_stats()

    def _load_snapshot(self):
        dep = self.deployment
        return {
            "threads": dep.ndb.thread_busy(),
            "nn_busy": {nn.addr: nn.handler_pool.busy_time for nn in dep.namenodes},
        }

    def _fill_cpu(self, report, snap, window):
        dep = self.deployment
        total_busy, total_cores = 0.0, 0
        for name, (busy, cores) in dep.ndb.thread_busy().items():
            base = snap["threads"].get(name, (0.0, cores))[0]
            report.ndb_thread_cpu_pct[name] = 100.0 * (busy - base) / (cores * window)
            total_busy += busy - base
            total_cores += cores
        report.storage_cpu_pct = 100.0 * total_busy / (total_cores * window)
        nn_busy = sum(
            nn.handler_pool.busy_time - snap["nn_busy"].get(nn.addr, 0.0)
            for nn in dep.namenodes
        )
        report.server_cpu_pct = 100.0 * nn_busy / (
            len(dep.namenodes) * dep.config.nn_cores * window)

    # -- fault surface -------------------------------------------------------
    def _nodes(self):
        # Pick up NNs the elastic lifecycle added after construction.
        for nn in self.deployment.namenodes:
            if nn.addr not in self._by_addr:
                self._by_addr[nn.addr] = nn
        return self._by_addr

    def crash(self, addr):
        node = self._node(addr)
        if addr.kind is NodeKind.NDB_DATANODE:
            # Detection comes from the heartbeat ring, as in production.
            self.deployment.ndb.crash_datanode(addr)
        else:
            node.shutdown()

    def recover(self, addr):
        node = self._node(addr)
        dep = self.deployment
        if addr in dep.decommissioned:
            # A gracefully retired NN stays retired: recover_all after an
            # elastic scale-down must not resurrect it.
            yield self.env.timeout(0)
            return
        if addr.kind is NodeKind.NDB_DATANODE:
            yield from dep.ndb.restart_datanode(addr)
        else:
            node.restart()
            # Spot capacity came back: it heartbeats again, so it is no
            # longer exempt from anything.
            dep.preempted.discard(addr)
            yield self.env.timeout(0)

    def on_heal(self):
        # Reset arbitration epochs so the next partition is judged afresh.
        self.deployment.ndb.heal()

    def seed_blocks(self, count):
        """Create large files pre-fault so re-replication has work to do.

        Small files live inline in NDB (Section II-A3); without these the
        block-layer AZ-coverage invariant would be vacuously green.
        """
        if count <= 0 or not self.deployment.block_datanodes:
            yield self.env.timeout(0)
            return 0
        client = self.make_client()
        payload = b"x" * (SMALL_FILE_MAX_BYTES + 1024)
        yield from client.mkdirs("/chaos")
        for i in range(count):
            yield from client.create(f"/chaos/big{i}", data=payload)
        return count

    def add_namenode(self, az):
        nn = self.deployment.add_namenode(az=az, reason="chaos")
        return f"added {nn.addr} in az{nn.az}"

    def decommission_namenode(self, addr):
        self.env.process(
            self.deployment.decommission_namenode(addr, reason="chaos"),
            name=f"{addr}:decommission",
        )
        return f"decommissioning {addr} (draining)"

    def preempt_namenode(self, addr, warning_ms):
        self.env.process(
            self.deployment.preempt_namenode(addr, warning_ms=warning_ms),
            name=f"{addr}:preempt",
        )
        return f"preempting {addr} (warning {warning_ms}ms)"


class CephHarness(Harness):
    """A CephFS cluster: MDS ranks and OSDs."""

    kind = "cephfs"
    # CephFS saturation throughput is insensitive to client count once the
    # MDSs are the bottleneck; fewer closed-loop clients keep queueing
    # transients (and simulation cost) bounded.
    preferred_clients_per_server = 8

    def __init__(self, spec: SetupSpec, cluster):
        super().__init__(spec, cluster.env, cluster.network,
                         [*cluster.mds_list, *cluster.osds])
        self.cluster = cluster

    def install(self, namespace: Namespace) -> int:
        if self.spec.dir_pinning:
            # The operator pins the second-level directories round-robin
            # before any data lands (Section V-A-b).
            partitioner = self.cluster.partitioner
            partitioner.pin(partitioner.subtree_key_of_dir(d) for d in namespace.dirs)
        return install_cephfs(self.cluster, namespace)

    def _new_client(self, az):
        return self.cluster.client(az)

    def warm_client_caches(self, clients, workload) -> None:
        """Install steady-state kernel caches and capability registrations.

        The paper's clients mount CephFS long before the measurement; their
        working sets are cached under valid capabilities (the mechanism the
        SkipKCache setup disables to expose true MDS throughput).
        """
        if not self.cluster.config.kclient_cache:
            return
        if not hasattr(workload, "working_set"):
            return
        for index, client in enumerate(clients):
            # dict.fromkeys = order-preserving dedupe; set() would make the
            # warm order (and thus cap-set contents) hash-seed dependent.
            for path in dict.fromkeys(workload.working_set(index)):
                rank = self.cluster.partitioner.rank_of(path) % len(self.cluster.mds_list)
                mds = self.cluster.mds_list[rank]
                inode = mds.shard.inodes.get(path)
                if inode is None:
                    continue
                client.cache[path] = inode
                mds.capabilities.setdefault(path, set()).add(client.addr)

    # -- utilization ---------------------------------------------------------
    def _storage_addrs(self):
        return [o.addr for o in self.cluster.osds]

    def _server_addrs(self):
        return [m.addr for m in self.cluster.mds_list]

    def _disk_bytes(self):
        return {o.addr: (o.disk.bytes_read, o.disk.bytes_written)
                for o in self.cluster.osds}

    def _load_snapshot(self):
        cluster = self.cluster
        return {
            "mds_busy": {m.addr: m.cpu.busy_time for m in cluster.mds_list},
            "osd_busy": {o.addr: o.cpu.busy_time for o in cluster.osds},
            "mds_served": {m.addr: m.ops_served for m in cluster.mds_list},
        }

    def _fill_cpu(self, report, snap, window):
        cluster = self.cluster
        mds_busy = sum(
            m.cpu.busy_time - snap["mds_busy"].get(m.addr, 0.0) for m in cluster.mds_list
        )
        # MDS hosts have 32 cores but a single-threaded server (Fig. 10b).
        report.server_cpu_pct = 100.0 * mds_busy / (len(cluster.mds_list) * 32 * window)
        osd_busy = sum(
            o.cpu.busy_time - snap["osd_busy"].get(o.addr, 0.0) for o in cluster.osds
        )
        report.storage_cpu_pct = 100.0 * osd_busy / (len(cluster.osds) * 8 * window)

    def mds_requests_since(self, snap):
        return sum(
            m.ops_served - snap["mds_served"].get(m.addr, 0) for m in self.cluster.mds_list
        )

def _avg_mb_s(delta, addrs, window_ms: float, direction: str) -> float:
    total = 0
    for addr in addrs:
        node = delta.node.get(addr)
        if node is not None:
            total += getattr(node, direction)
    n = max(1, len(addrs))
    return total / n / window_ms / _MB
