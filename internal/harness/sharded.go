package harness

import (
	"fmt"
	"sort"

	"firm/internal/app"
	"firm/internal/cluster"
	"firm/internal/runner"
	"firm/internal/sim"
	"firm/internal/topology"
	"firm/internal/workload"
)

// ShardedOptions configures a sharded testbed.
type ShardedOptions struct {
	Seed int64
	Spec *topology.Spec
	// Shards is the partition count (default 1).
	Shards int
	// ClusterConfig overrides cluster defaults when non-nil; PerInstanceNoise
	// is forced on regardless (shard-count invariance requires it).
	ClusterConfig *cluster.Config
}

// ShardedBench is a testbed whose cluster and application are partitioned
// across engine shards. It is intentionally leaner than Bench: no tracing
// pipeline, telemetry collector, or controller — those bind to one shard's
// engine, and the sharded path exists to push raw scale (the gensweep's
// 10,000-service cells). Latencies are observed through the app's result
// hook.
type ShardedBench struct {
	Opts     ShardedOptions
	Eng      *sim.ShardedEngine
	App      *app.App
	Gen      *workload.Generator
	Clusters []*cluster.Cluster
	// NumNodes is the size of the virtual node fleet the placement opened.
	NumNodes int

	assign map[string]int
}

// ShardOf returns the shard index hosting the named service's replicas
// (-1 if unknown). Scenario players target the owning shard's engine and
// cluster.
func (b *ShardedBench) ShardOf(service string) int {
	sh, ok := b.assign[service]
	if !ok {
		return -1
	}
	return sh
}

// NewSharded builds a sharded testbed.
//
// Placement is computed globally, then realised per shard: services (in
// sorted name order) are packed first-fit onto a growing fleet of virtual
// Xeon nodes by CPU request, and the fleet is then cut into contiguous
// blocks of nodes, one block per shard. Both steps are pure functions of
// the spec — the fleet and every container's host node are identical at
// every shard count, only the block boundaries move — which is half of the
// byte-identical-across-shard-counts contract (the other half is
// the app routing everything through engine mails).
func NewSharded(opts ShardedOptions) (*ShardedBench, error) {
	if opts.Spec == nil {
		return nil, fmt.Errorf("harness: Spec is required")
	}
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	spec := opts.Spec
	if spec.BaseRPCDelay <= 0 {
		return nil, fmt.Errorf("harness: sharded run needs a positive BaseRPCDelay (it is the engine lookahead)")
	}
	names := make([]string, 0, len(spec.Services))
	for name := range spec.Services {
		names = append(names, name)
	}
	sort.Strings(names)

	// First-fit packing by CPU request, opening a new node when the current
	// one is full. nodeOf[i] is the node index of names[i].
	capCPU := cluster.XeonProfile.Capacity[cluster.CPU]
	nodeOf := make([]int, len(names))
	numNodes := 0
	var free float64
	for i, name := range names {
		svc := spec.Services[name]
		req := svc.Limits[cluster.CPU] * float64(svc.Replicas)
		if req > capCPU {
			return nil, fmt.Errorf("harness: service %s requests %.1f CPU, node capacity is %.1f", name, req, capCPU)
		}
		if numNodes == 0 || req > free {
			numNodes++
			free = capCPU
		}
		free -= req
		nodeOf[i] = numNodes - 1
	}

	se := sim.NewShardedEngine(opts.Seed, opts.Shards, spec.BaseRPCDelay)
	ccfg := cluster.DefaultConfig()
	if opts.ClusterConfig != nil {
		ccfg = *opts.ClusterConfig
	}
	ccfg.PerInstanceNoise = true
	ccfg.NoiseSeed = opts.Seed

	// Contiguous node blocks: node n belongs to shard n*S/numNodes. The
	// node objects themselves are created per shard, in global node order,
	// so contention neighbourhoods match the S=1 fleet exactly.
	shardOfNode := func(n int) int {
		if numNodes == 0 {
			return 0
		}
		return n * opts.Shards / numNodes
	}
	clusters := make([]*cluster.Cluster, opts.Shards)
	for p := range clusters {
		clusters[p] = cluster.New(se.Shard(p), ccfg)
	}
	nodes := make([]*cluster.Node, numNodes)
	for n := 0; n < numNodes; n++ {
		nodes[n] = clusters[shardOfNode(n)].AddNode(cluster.XeonProfile)
	}
	assign := make(map[string]int, len(names))
	for i, name := range names {
		svc := spec.Services[name]
		sh := shardOfNode(nodeOf[i])
		assign[name] = sh
		if _, err := clusters[sh].DeployServiceOn(nodes[nodeOf[i]], name, svc.Replicas, svc.Limits); err != nil {
			return nil, err
		}
	}
	if len(spec.Endpoints) == 0 {
		return nil, fmt.Errorf("harness: spec has no endpoints")
	}
	home := assign[spec.Endpoints[0].Root.Service]
	a, err := app.Deploy(se, spec, home, assign, clusters, nil)
	if err != nil {
		return nil, err
	}
	return &ShardedBench{Opts: opts, Eng: se, App: a, Clusters: clusters, NumNodes: numNodes, assign: assign}, nil
}

// AttachWorkload creates and starts the open-loop generator on the home
// shard's engine.
func (b *ShardedBench) AttachWorkload(p workload.Pattern) *workload.Generator {
	b.Gen = workload.NewGenerator(b.App, p, nil, b.Opts.Seed)
	b.Gen.Start()
	return b.Gen
}

// Run advances the sharded clock by d. Shard workers occupy runner slots:
// the run borrows up to shards-1 idle slots from the campaign pool for its
// window workers and returns them when done, so a -parallel campaign and a
// sharded cell share one CPU budget instead of oversubscribing.
func (b *ShardedBench) Run(d sim.Time) {
	extra := runner.AcquireUpTo(b.Eng.Shards() - 1)
	defer runner.ReleaseSlots(extra)
	b.Eng.SetWorkers(1 + extra)
	b.Eng.RunFor(d)
}
