package cluster

import (
	"math"
	"math/rand"

	"firm/internal/sim"
)

// Work is a unit of local computation submitted to a container: the base
// (uncontended) service time and the resource-demand rates held while the
// work occupies a worker. To, if non-nil, is told how the work ended, and
// Token is handed back with it.
type Work struct {
	Base   sim.Time
	Demand Vector
	To     Receiver
	Token  uint64
}

// Receiver learns how submitted work ended. WorkDone receives the time the
// work spent queued and its realized processing time; WorkDropped fires
// instead if the container was not ready, its queue was full, or it was
// retired with the work still queued (the request is shed, counted in
// Fig. 10(c)). token is the submitter's Work.Token, so one long-lived
// receiver can track many items by index without a closure per item.
type Receiver interface {
	WorkDone(token uint64, queued, processing sim.Time)
	WorkDropped(token uint64)
}

type queuedWork struct {
	w        Work
	enqueued sim.Time
}

// workQueue is a container's FIFO: a ring buffer that doubles when full and
// is otherwise reused, so steady-state Submit allocates nothing.
type workQueue struct {
	buf  []queuedWork
	head int
	n    int
}

//firmvet:noalloc
func (q *workQueue) push(w queuedWork) {
	if q.n == len(q.buf) {
		q.grow()
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = w
	q.n++
}

//firmvet:noalloc
func (q *workQueue) pop() queuedWork {
	w := q.buf[q.head]
	q.buf[q.head] = queuedWork{} // do not pin the receiver
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return w
}

// grow doubles the ring, unwrapping it so the FIFO order starts at 0.
func (q *workQueue) grow() {
	buf := make([]queuedWork, max(8, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf, q.head = buf, 0
}

// inflight is one executing work item: what its completion must release
// and whom it must tell. It lives in the container's slot table while the
// completion event is pending.
type inflight struct {
	demand     Vector
	nodeDemand Vector
	cpuCharge  float64
	dur        sim.Time
	queued     sim.Time
	to         Receiver
	token      uint64
}

// completion is the container viewed as the sim.Handler of its work
// completion events; the event's first payload word is the slot index.
type completion Container

// Handle completes the work in slot.
//
//firmvet:noalloc
func (d *completion) Handle(slot, _ uint64) { (*Container)(d).complete(uint32(slot)) }

// Container is a deployed microservice instance: a FIFO request queue in
// front of a worker pool whose concurrency tracks the container's CPU limit.
// Requests processed by a worker are slowed down by the most-contended
// resource, either at container scope (limit pressure, targeted anomaly) or
// node scope (shared-resource interference) — the mechanism behind the
// paper's Fig. 1 latency spikes.
type Container struct {
	ID      string
	Service string

	eng  *sim.Engine
	cfg  Config
	node *Node
	// Under Config.PerInstanceNoise the container draws service-time noise
	// from its own stream instead of the engine's. Only noiseSeed is set at
	// placement; the rand source is built lazily on the first draw, so the
	// many replicas a large deployment never routes work to cost nothing.
	hasNoise  bool
	noiseSeed int64
	noise     *rand.Rand

	limits Vector
	ready  bool

	queue   workQueue
	busy    int
	busyCPU float64 // usage accounted to node/container for in-flight work

	// slots holds in-flight work, indexed by the completion event's
	// payload; freeSlots lists released slots for LIFO reuse.
	slots     []inflight
	freeSlots []uint32

	inject         Vector   // targeted anomaly load (e.g. CPU stressor in the pod)
	nodeInjContrib Vector   // the portion of inject charged to the node
	netDelay       sim.Time // injected network delay on this instance's RPCs

	// Cumulative counters (reset-free; samplers diff them).
	Completed uint64
	Dropped   uint64
	busySince sim.Time
	busyInt   float64 // integral of busy workers over time (µs·workers)
	curDemand Vector  // sum of demand vectors of in-flight work
	// cpuActive tracks effective CPU consumption of in-flight work: a
	// request stalled on memory/LLC/IO/network occupies a worker without
	// burning proportionally more cycles, so its CPU charge is scaled by
	// cpuSlowdown/totalSlowdown. This is what makes the Kubernetes
	// autoscaler blind to non-CPU contention (Fig. 1: CPU utilization is
	// flat through a memory-bandwidth latency spike).
	cpuActive float64
}

// Limits returns the container's current resource limits (the RLT vector of
// §3.4's problem formulation).
func (c *Container) Limits() Vector { return c.limits }

// Node returns the hosting node.
func (c *Container) Node() *Node { return c.node }

// Ready reports whether the container has finished starting.
func (c *Container) Ready() bool { return c.ready }

// QueueLen returns the number of queued (not yet executing) work items.
func (c *Container) QueueLen() int { return c.queue.n }

// Busy returns the number of in-flight work items.
func (c *Container) Busy() int { return c.busy }

// NetDelay returns the injected per-RPC network delay for this instance.
func (c *Container) NetDelay() sim.Time { return c.netDelay }

// SetNetDelay sets the injected per-RPC network delay (tc-style anomaly).
func (c *Container) SetNetDelay(d sim.Time) {
	if d < 0 {
		d = 0
	}
	c.netDelay = d
}

// InjectedLoad returns the targeted anomaly load on this container.
func (c *Container) InjectedLoad() Vector { return c.inject }

// SetInjectedLoad sets targeted anomaly load. The non-CPU components also
// reach the node (a stressor inside the pod consumes node-shared bandwidth),
// but the node-side contribution is capped by the container's partition
// limits: Intel MBA/CAT and tc throttle the stressor exactly like the
// victim's own traffic.
func (c *Container) SetInjectedLoad(v Vector) {
	v = v.ClampNonNeg()
	contrib := v.Min(c.limits)
	contrib[CPU] = 0 // CPU contention is container-scoped via the limit
	c.node.AddInjectedLoad(contrib.Sub(c.nodeInjContrib))
	c.nodeInjContrib = contrib
	c.inject = v
}

// workers returns the worker-pool size implied by the CPU limit.
func (c *Container) workers() int {
	w := int(math.Floor(c.limits[CPU] + 1e-9))
	if w < 1 {
		w = 1
	}
	return w
}

// SetLimits changes the container's resource limits in place (a scale-up or
// scale-down partitioning action, §3.5). Limits are clamped to node capacity
// and to the configured floor. Newly freed workers dispatch immediately.
func (c *Container) SetLimits(v Vector) {
	v = v.Min(c.node.Prof.Capacity)
	for r := range v {
		if v[r] < c.cfg.MinLimit[r] {
			v[r] = c.cfg.MinLimit[r]
		}
	}
	c.node.adjustCPUAlloc(v[CPU] - c.limits[CPU])
	c.limits = v
	c.dispatch()
}

// Usage returns the container's instantaneous demand per resource: in-flight
// request demand plus targeted anomaly load. CPU usage counts effective
// cycles: workers stalled on other resources contribute proportionally less.
func (c *Container) Usage() Vector {
	u := c.curDemand.Add(c.inject)
	u[CPU] = c.cpuActive + c.inject[CPU]
	return u.ClampNonNeg()
}

// cpuPerWorker spreads a fractional CPU limit across the (integer) pool.
func (c *Container) cpuPerWorker() float64 {
	w := float64(c.workers())
	if c.limits[CPU] < w {
		return c.limits[CPU] / w
	}
	return 1
}

// Utilization returns Usage/Limits per resource, the RU vector of the RL
// state (Table 3).
func (c *Container) Utilization() Vector { return c.Usage().Div(c.limits) }

// Submit enqueues work on the container. Work on a non-ready container or a
// full queue is dropped.
//
//firmvet:noalloc
func (c *Container) Submit(w Work) {
	if !c.ready || c.queue.n >= c.cfg.QueueCap {
		c.Dropped++
		if w.To != nil {
			w.To.WorkDropped(w.Token)
		}
		return
	}
	qw := queuedWork{w: w, enqueued: c.eng.Now()}
	if c.queue.n == 0 && c.busy < c.workers() {
		c.start(qw) // a free worker takes it at once; the ring is only for waiting work
		return
	}
	c.queue.push(qw)
	c.dispatch()
}

func (c *Container) dispatch() {
	for c.busy < c.workers() && c.queue.n > 0 {
		c.start(c.queue.pop())
	}
}

// factors computes the service-time inflation at admission: total is the
// maximum oversubscription across (a) this container's limits and (b) the
// node's shared resources, floored at 1; cpuOnly isolates the CPU-driven
// part, used to charge effective CPU cycles to stalled workers. An extra
// sub-linear CPU-queue term is unnecessary because queueing delay emerges
// from the worker pool itself.
func (c *Container) factors(extra Vector) (total, cpuOnly float64) {
	total, cpuOnly = 1.0, 1.0
	use := c.Usage().Add(extra)
	for r := Resource(0); r < NumResources; r++ {
		if lim := c.limits[r]; lim > 0 {
			x := use[r] / lim
			if x > total {
				total = x
			}
			if r == CPU && x > cpuOnly {
				cpuOnly = x
			}
		}
	}
	if nf := c.node.contentionFactor(); nf > total {
		total = nf
	}
	return math.Pow(total, c.cfg.SlowdownExp), math.Pow(cpuOnly, c.cfg.SlowdownExp)
}

//firmvet:noalloc
func (c *Container) start(qw queuedWork) {
	now := c.eng.Now()
	// Admission factors include this request's own demand (with a full
	// provisional CPU charge for its worker).
	extra := qw.w.Demand
	extra[CPU] = c.cpuPerWorker()
	total, cpuOnly := c.factors(extra)
	c.busy++
	c.curDemand = c.curDemand.Add(qw.w.Demand)
	// A worker stalled on a non-CPU resource burns fewer cycles: its CPU
	// charge is scaled by how much of the slowdown is CPU-driven.
	cpuCharge := c.cpuPerWorker() * cpuOnly / total
	c.cpuActive += cpuCharge
	nodeDemand := c.effectiveNodeDemand(qw.w.Demand)
	nodeDemand[CPU] = cpuCharge
	c.node.usage = c.node.usage.Add(nodeDemand)

	base := float64(qw.w.Base) * c.node.Prof.SpeedFactor
	// Fractional CPU limits below one worker inflate service time (the
	// container only gets limits[CPU] of a core).
	if c.limits[CPU] < 1 && c.limits[CPU] > 0 {
		base /= c.limits[CPU]
	}
	noise := 1.0
	if c.cfg.NoiseSD > 0 {
		rng := c.noise
		if rng == nil {
			if c.hasNoise {
				//firmvet:allow noalloc -- lazy per-container noise source, built on the container's first draw only
				c.noise = rand.New(rand.NewSource(c.noiseSeed))
				rng = c.noise
			} else {
				rng = c.eng.Rand()
			}
		}
		noise = sim.NormalClamped(rng, 1, c.cfg.NoiseSD, 0.5, 2.0)
	}
	dur := sim.Time(base * total * noise)
	if dur < 1 {
		dur = 1
	}
	var slot uint32
	if n := len(c.freeSlots); n > 0 {
		slot = c.freeSlots[n-1]
		c.freeSlots = c.freeSlots[:n-1]
	} else {
		slot = uint32(len(c.slots))
		c.slots = append(c.slots, inflight{})
	}
	c.slots[slot] = inflight{
		demand: qw.w.Demand, nodeDemand: nodeDemand, cpuCharge: cpuCharge,
		dur: dur, queued: now - qw.enqueued, to: qw.w.To, token: qw.w.Token,
	}
	c.eng.ScheduleEvent(now+dur, (*completion)(c), uint64(slot), 0)
}

// complete retires the work in slot: release its resources, tell its
// receiver, and hand the freed worker to the queue.
//
//firmvet:noalloc
func (c *Container) complete(slot uint32) {
	f := c.slots[slot]
	c.slots[slot] = inflight{}
	c.freeSlots = append(c.freeSlots, slot)
	c.busy--
	c.busyInt += float64(f.dur)
	c.cpuActive -= f.cpuCharge
	if c.cpuActive < 0 {
		c.cpuActive = 0
	}
	c.curDemand = c.curDemand.Sub(f.demand).ClampNonNeg()
	c.node.usage = c.node.usage.Sub(f.nodeDemand).ClampNonNeg()
	c.Completed++
	if f.to != nil {
		f.to.WorkDone(f.token, f.queued, f.dur)
	}
	c.dispatch()
}

// effectiveNodeDemand converts per-request demand into node-level load,
// capping each resource at the container limit (a container cannot pull more
// bandwidth than its partition allows — that is the point of Intel MBA/CAT
// style partitioning).
func (c *Container) effectiveNodeDemand(d Vector) Vector {
	out := d
	for r := MemBW; r < NumResources; r++ {
		if c.limits[r] > 0 && out[r] > c.limits[r] {
			out[r] = c.limits[r]
		}
	}
	out[CPU] = c.cpuPerWorker()
	return out
}
