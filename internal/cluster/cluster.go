package cluster

import (
	"fmt"
	"sort"

	"firm/internal/sim"
)

// Config tunes the substrate's behaviour.
type Config struct {
	// QueueCap bounds each container's FIFO queue; beyond it requests are
	// shed (Fig. 10(c) counts drops).
	QueueCap int
	// SlowdownExp shapes how oversubscription translates into service-time
	// inflation (1 = linear; >1 punishes saturation harder, modelling
	// thrashing effects near the knee).
	SlowdownExp float64
	// NoiseSD is the relative standard deviation of service-time noise.
	NoiseSD float64
	// MinLimit is the per-resource floor for container limits (the paper's
	// lower limit Ř: e.g. CPU time cannot be set to 0).
	MinLimit Vector
	// WarmStartDelay and ColdStartDelay are container start latencies
	// (Table 6: warm 45.7±6.9 ms, cold 2050.8±291.4 ms).
	WarmStartDelay sim.Time
	ColdStartDelay sim.Time
	// PerInstanceNoise gives every container its own service-time noise
	// stream keyed by (NoiseSeed, service, replica ordinal) instead of the
	// engine's shared stream. Sharded runs require it: the noise a replica
	// sees must depend only on which replica it is, never on which shard's
	// engine executes it or what else that engine has drawn.
	PerInstanceNoise bool
	NoiseSeed        int64
}

// DefaultConfig returns the configuration used across experiments.
func DefaultConfig() Config {
	return Config{
		QueueCap:       512,
		SlowdownExp:    1.6,
		NoiseSD:        0.06,
		MinLimit:       V(0.1, 50, 0.5, 10, 10),
		WarmStartDelay: sim.FromMillis(45.7),
		ColdStartDelay: sim.FromMillis(2050.8),
	}
}

// Cluster is the set of nodes plus container placement and replica-set
// bookkeeping. It is the "Kubernetes" of the reproduction: the deployment
// module (internal/deploy) actuates FIRM's decisions against it.
type Cluster struct {
	eng    *sim.Engine
	cfg    Config
	nodes  []*Node
	sets   map[string]*ReplicaSet
	nextID int

	// setsSorted caches the sorted ReplicaSets view; services are only
	// ever added (DeployService rejects duplicates, nothing deletes), so a
	// length check detects staleness.
	setsSorted []*ReplicaSet
}

// New creates a cluster driven by eng.
func New(eng *sim.Engine, cfg Config) *Cluster {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 512
	}
	if cfg.SlowdownExp <= 0 {
		cfg.SlowdownExp = 1
	}
	return &Cluster{eng: eng, cfg: cfg, sets: make(map[string]*ReplicaSet)}
}

// Engine returns the driving simulation engine.
func (cl *Cluster) Engine() *sim.Engine { return cl.eng }

// Config returns the cluster configuration.
func (cl *Cluster) Config() Config { return cl.cfg }

// AddNode appends a node built from the profile and returns it.
func (cl *Cluster) AddNode(prof HardwareProfile) *Node {
	n := NewNode(fmt.Sprintf("node-%d", len(cl.nodes)), prof)
	cl.nodes = append(cl.nodes, n)
	return n
}

// Nodes returns all nodes.
func (cl *Cluster) Nodes() []*Node { return cl.nodes }

// ReplicaSet returns the replica set for a service name, or nil.
func (cl *Cluster) ReplicaSet(service string) *ReplicaSet { return cl.sets[service] }

// ReplicaSets returns all replica sets sorted by service name. The slice
// is cached — the control loop iterates it every tick and set membership
// only changes on DeployService — so callers must treat it as read-only.
func (cl *Cluster) ReplicaSets() []*ReplicaSet {
	if len(cl.setsSorted) != len(cl.sets) {
		// Rebuild into a fresh slice: reusing the backing array would
		// rewrite slices handed out before the rebuild.
		sorted := make([]*ReplicaSet, 0, len(cl.sets))
		for _, rs := range cl.sets {
			sorted = append(sorted, rs)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Service < sorted[j].Service })
		cl.setsSorted = sorted
	}
	return cl.setsSorted
}

// FindContainer locates a container by instance ID across all replica sets.
func (cl *Cluster) FindContainer(id string) *Container {
	for _, rs := range cl.sets {
		for _, c := range rs.containers {
			if c.ID == id {
				return c
			}
		}
	}
	return nil
}

// TotalRequestedCPU sums CPU limits over all ready containers; expressed in
// cores (multiply by 100 for the "%CPU" axis of Fig. 10(b)). The sum runs
// over the sorted replica sets: float addition is order-sensitive, and
// iterating the service map directly would round in a different order each
// run (latent nondeterminism flagged by firmvet's maporder check).
func (cl *Cluster) TotalRequestedCPU() float64 {
	var sum float64
	for _, rs := range cl.ReplicaSets() {
		for _, c := range rs.containers {
			sum += c.limits[CPU]
		}
	}
	return sum
}

// pickNode returns the node with the most free (unallocated) CPU that can
// fit cpuReq more cores; nil if none fits.
func (cl *Cluster) pickNode(cpuReq float64) *Node {
	var best *Node
	for _, n := range cl.nodes {
		if n.FreeCPU() < cpuReq {
			continue
		}
		if best == nil || n.FreeCPU() > best.FreeCPU() {
			best = n
		}
	}
	return best
}

// ErrNoCapacity is reported when no node can host a requested container.
var ErrNoCapacity = fmt.Errorf("cluster: no node with sufficient free CPU")

// ReplicaSet groups the container replicas of one microservice and load-
// balances across them round-robin (the Kubernetes Service/Deployment pair).
type ReplicaSet struct {
	Service    string
	cl         *Cluster
	containers []*Container
	rr         int
}

// DeployService creates a replica set with `replicas` containers, each with
// the given limits. Containers start warm (the initial deployment is part of
// experiment setup, not a measured action).
func (cl *Cluster) DeployService(service string, replicas int, limits Vector) (*ReplicaSet, error) {
	if _, dup := cl.sets[service]; dup {
		return nil, fmt.Errorf("cluster: service %s already deployed", service)
	}
	rs := &ReplicaSet{Service: service, cl: cl}
	cl.sets[service] = rs
	for i := 0; i < replicas; i++ {
		if _, err := rs.AddReplica(limits, false, true); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// AddReplica places one more container for the service. cold selects the
// cold-start delay; instant skips the start delay entirely (setup only).
func (rs *ReplicaSet) AddReplica(limits Vector, cold, instant bool) (*Container, error) {
	node := rs.cl.pickNode(limits[CPU])
	if node == nil {
		return nil, ErrNoCapacity
	}
	return rs.place(node, limits, cold, instant)
}

// place attaches one container to the given node. Under PerInstanceNoise the
// replica's noise stream is keyed by its ordinal within the set — not by the
// cluster-global container ID, which depends on deployment interleaving.
func (rs *ReplicaSet) place(node *Node, limits Vector, cold, instant bool) (*Container, error) {
	rs.cl.nextID++
	c := &Container{
		ID:      fmt.Sprintf("%s-%d", rs.Service, rs.cl.nextID),
		Service: rs.Service,
		eng:     rs.cl.eng,
		cfg:     rs.cl.cfg,
		node:    node,
		limits:  limits.Min(node.Prof.Capacity),
	}
	if rs.cl.cfg.PerInstanceNoise {
		// Only the seed is derived here; the ~5KB rand source is built on
		// first draw. A 10,000-service deployment places containers that may
		// never serve work, and eager construction made math/rand.newSource
		// a quarter of the whole cell's CPU profile.
		c.hasNoise = true
		c.noiseSeed = sim.DeriveSeed(rs.cl.cfg.NoiseSeed, fmt.Sprintf("noise/%s/%d", rs.Service, len(rs.containers)))
	}
	if err := node.attach(c); err != nil {
		return nil, err
	}
	rs.containers = append(rs.containers, c)
	if instant {
		c.ready = true
		return c, nil
	}
	delay := rs.cl.cfg.WarmStartDelay
	if cold {
		delay = rs.cl.cfg.ColdStartDelay
	}
	rs.cl.eng.Schedule(delay, func() { c.ready = true })
	return c, nil
}

// DeployServiceOn creates a replica set with all containers pinned to node,
// bypassing pickNode. The sharded harness uses it to realise a placement
// computed globally (so the node→shard mapping, not free-CPU order at deploy
// time, decides where every replica lives).
func (cl *Cluster) DeployServiceOn(node *Node, service string, replicas int, limits Vector) (*ReplicaSet, error) {
	if _, dup := cl.sets[service]; dup {
		return nil, fmt.Errorf("cluster: service %s already deployed", service)
	}
	rs := &ReplicaSet{Service: service, cl: cl}
	cl.sets[service] = rs
	for i := 0; i < replicas; i++ {
		if _, err := rs.place(node, limits, false, true); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// RemoveReplica retires the given container (scale-in). Queued work is
// dropped; in-flight work completes against a detached node.
func (rs *ReplicaSet) RemoveReplica(c *Container) bool {
	for i, cc := range rs.containers {
		if cc == c {
			rs.containers = append(rs.containers[:i], rs.containers[i+1:]...)
			c.ready = false
			for c.queue.n > 0 {
				qw := c.queue.pop()
				c.Dropped++
				if qw.w.To != nil {
					qw.w.To.WorkDropped(qw.w.Token)
				}
			}
			c.queue = workQueue{}
			c.node.detach(c)
			return true
		}
	}
	return false
}

// Containers returns the replicas (live view; do not mutate).
func (rs *ReplicaSet) Containers() []*Container { return rs.containers }

// ReadyCount returns the number of ready replicas.
func (rs *ReplicaSet) ReadyCount() int {
	n := 0
	for _, c := range rs.containers {
		if c.ready {
			n++
		}
	}
	return n
}

// Pick selects the next ready container round-robin; nil if none is ready.
func (rs *ReplicaSet) Pick() *Container {
	n := len(rs.containers)
	for i := 0; i < n; i++ {
		c := rs.containers[rs.rr%n]
		rs.rr++
		if c.ready {
			return c
		}
	}
	return nil
}

// Utilization aggregates utilization across ready replicas (mean), the
// signal the K8s-HPA baseline scales on.
func (rs *ReplicaSet) Utilization() Vector {
	var sum Vector
	n := 0
	for _, c := range rs.containers {
		if c.ready {
			sum = sum.Add(c.Utilization())
			n++
		}
	}
	if n == 0 {
		return Vector{}
	}
	return sum.Scale(1 / float64(n))
}
