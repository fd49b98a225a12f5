package pidcomm

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/cost"
)

// Cluster is a set of identically-configured Machines cooperating over
// an MPI-like network (§ IX-A, Figure 23(b)): the cluster-scale serving
// session. A ClusterCollective descriptor treats the H×P PEs of the
// whole cluster as one flat communicator; the cluster lowers it — per
// host — into ONE schedule-IR plan (intra-host legs, a network leg
// priced by the parameterized NetParams model, redistribution legs), so
// cluster collectives compile onto the machines' one shape table, fuse and
// replay exactly like single-machine ones.
//
// Capacity studies run the whole thing on the cost-only backend
// (CostOnly option): breakdowns stay bit-identical to the functional
// cluster while no bytes exist or move, which is what makes sweeps to
// thousands of hosts cheap (`pidbench -exp cluster`). Like a Machine, a
// cluster's run-time state is read through one method, Snapshot.
type Cluster struct {
	cc *core.Cluster

	// mu guards whole, the session of Run, Compile and Submit.
	mu    sync.Mutex
	whole *ClusterComm
}

// NewCluster builds hosts identically-configured Machines of the given
// geometry and hypercube shape and joins them into a cluster. All
// MachineOptions apply to every host (use WithParams to set NetParams
// alongside the per-host timing model).
func NewCluster(hosts int, geo Geometry, shape []int, opts ...MachineOption) (*Cluster, error) {
	cc, err := core.NewCluster(hosts, geo, shape, config(opts))
	if err != nil {
		return nil, fmt.Errorf("pidcomm: %w", err)
	}
	return &Cluster{cc: cc}, nil
}

// NumHosts returns the number of hosts.
func (cl *Cluster) NumHosts() int { return cl.cc.NumHosts() }

// PEsPerHost returns each host's PE count.
func (cl *Cluster) PEsPerHost() int { return cl.cc.PEsPerHost() }

// NumPEs returns the cluster-wide PE count (hosts × PEs/host).
func (cl *Cluster) NumPEs() int { return cl.NumHosts() * cl.PEsPerHost() }

// CostOnly reports whether the cluster runs the cost-only backend.
func (cl *Cluster) CostOnly() bool { return cl.Machine(0).CostOnly() }

// Machine returns host h's machine, where its sessions and timeline live;
// SetAutoObjective on it sets every host's objective (one shape table).
func (cl *Cluster) Machine(h int) *Machine { return &Machine{cc: cl.cc.Host(h)} }

// Run executes d once across every host in the cluster's whole-cluster
// session (Comm), bound by the first Run, Compile or Submit: regions are
// relative to the largest free MRAM window then — offset 0 on a fresh
// cluster — so carve NewTenant sessions first. It returns the per-category
// maximum of the hosts' charges, the cluster critical path of the call.
func (cl *Cluster) Run(d ClusterCollective) (Breakdown, error) {
	cp, err := cl.Compile(d)
	if err != nil {
		return Breakdown{}, err
	}
	return cp.Run()
}

// Compile is ClusterComm.Compile on the whole-cluster session (see Run).
func (cl *Cluster) Compile(d ClusterCollective) (*ClusterPlan, error) {
	cl.mu.Lock()
	var err error
	if cl.whole == nil {
		cl.whole, err = cl.Comm()
	}
	s := cl.whole
	cl.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return s.Compile(d)
}

// Submit is ClusterComm.Submit on the whole-cluster session (see Run).
func (cl *Cluster) Submit(d ClusterCollective) (*ClusterFuture, error) {
	cp, err := cl.Compile(d)
	if err != nil {
		return nil, err
	}
	return cp.Submit(), nil
}

// Snapshot returns every host's Machine.Snapshot and their roll-up: the
// per-category maximum meter and the slowest elapsed time. Every
// collective runs in a session (Run's is the row named "machine").
func (cl *Cluster) Snapshot() ClusterSnapshot { return cl.cc.Snapshot() }

// Flush blocks until every plan submitted on a host's Machine has
// completed. A cluster plan's Submit completes at submission, so Flush
// drains local plans only.
func (cl *Cluster) Flush() { cl.cc.Flush() }

// NewTenant carves the same per-PE MRAM arena on every host and returns
// the session over the shards, one tenant per host with cfg's name,
// weight and quota. Its cluster collectives admit against every shard
// and meter each host's charges to that host's shard. A host that cannot
// fit the arena, or fits it at another base, fails the call and leaves
// every host as it found it.
func (cl *Cluster) NewTenant(cfg TenantConfig) (*ClusterComm, error) { return cl.cc.NewTenant(cfg) }

// Comm returns a whole-cluster session: each host's Machine.Comm, joined
// into a ClusterComm. Run, Compile and Submit bind one for you.
func (cl *Cluster) Comm() (*ClusterComm, error) { return cl.cc.Session() }

// ClusterComm is one sharded session on a Cluster (core.ClusterTenant):
// the same arena carved on every host. Cluster collectives go through
// Run/Compile/Submit with arena-relative regions; per-host data placement
// and local collectives go through the host shards (Host, each a Comm).
// Close closes every shard.
type ClusterComm = core.ClusterTenant

// ClusterCollective describes one collective over every PE of a
// cluster: the embedded Collective on the global communicator (Dims
// must select every dimension of the per-host hypercube; region sizes
// are the global call's), Root selecting the root host of the rooted
// primitives, and Flat requesting the naive non-hierarchical baseline
// (AllReduce only). On a cost-only cluster, Broadcast/Scatter payloads
// may be nil — the payload size comes from Dst.Bytes.
type ClusterCollective = core.ClusterCollective

// ClusterPlan is one cluster collective compiled into one plan per
// host, ready for repeated Run/Submit; Results returns rooted results
// (the plan's staging: the next run overwrites them), FusionReports the
// per-host fusion savings, HostPlan the per-host compiled plans. On a
// functional cluster a run is two phases split at the network leg: every
// host runs up to and through it, then every host runs the rest. On
// either backend Submit runs the plan there and then, like Run (a barrier
// on every host's timeline), and returns a completed future: no host's
// queue ever holds a cluster plan.
type ClusterPlan = core.ClusterPlan

// ClusterFuture is the handle of one submitted cluster execution,
// complete when Submit returns.
type ClusterFuture = core.ClusterFuture

// NetParams is the parameterized inter-host network model: per-NIC link
// bandwidth and latency, goodput efficiency, NICs per host, switch
// tiers and per-tier latency, and straggler skew. Start from
// DefaultNetParams and override fields on Params.Net before
// NewMachine/NewCluster (WithParams).
type NetParams = cost.NetParams

// DefaultNetParams returns the paper's network operating point: one
// 10 Gbps NIC per host, 25 µs per-round MPI latency, no switch hops.
func DefaultNetParams() NetParams { return cost.DefaultNetParams() }
