package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"firm/internal/sim"
)

func testCluster(t *testing.T, seed int64) (*sim.Engine, *Cluster) {
	t.Helper()
	eng := sim.NewEngine(seed)
	cfg := DefaultConfig()
	cfg.NoiseSD = 0 // deterministic service times for unit tests
	cl := New(eng, cfg)
	cl.AddNode(XeonProfile)
	return eng, cl
}

func TestVectorOps(t *testing.T) {
	a := V(1, 2, 3, 4, 5)
	b := V(5, 4, 3, 2, 1)
	if got := a.Add(b); got != V(6, 6, 6, 6, 6) {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Sub(b); got != V(-4, -2, 0, 2, 4) {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Scale(2); got != V(2, 4, 6, 8, 10) {
		t.Fatalf("Scale = %v", got)
	}
	if got := a.Div(V(2, 0, 3, 4, 5)); got != V(0.5, 0, 1, 1, 1) {
		t.Fatalf("Div = %v (zero denominator must yield 0)", got)
	}
	if got := V(-1, 2, -3, 0, 1).ClampNonNeg(); got != V(0, 2, 0, 0, 1) {
		t.Fatalf("ClampNonNeg = %v", got)
	}
	if got := a.Min(b); got != V(1, 2, 3, 2, 1) {
		t.Fatalf("Min = %v", got)
	}
	if a.MaxElem() != 5 {
		t.Fatalf("MaxElem = %v", a.MaxElem())
	}
}

func TestResourceNames(t *testing.T) {
	want := []string{"cpu", "membw", "llc", "iobw", "netbw"}
	for i, r := range Resources() {
		if r.String() != want[i] {
			t.Fatalf("resource %d name %q", i, r.String())
		}
	}
	if Resource(99).String() != "resource(99)" {
		t.Fatal("out-of-range resource name")
	}
}

func TestDeployAndProcess(t *testing.T) {
	eng, cl := testCluster(t, 1)
	rs, err := cl.DeployService("svc", 1, V(2, 1000, 4, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	c := rs.Pick()
	if c == nil || !c.Ready() {
		t.Fatal("expected a ready container")
	}
	var gotQ, gotP sim.Time
	done := false
	c.Submit(Work{
		Base:   10 * sim.Millisecond,
		Demand: V(1, 100, 0.5, 0, 0),
		To:     callbacks{done: func(q, p sim.Time) { gotQ, gotP, done = q, p, true }},
	})
	eng.RunUntil(sim.Second)
	if !done {
		t.Fatal("work did not complete")
	}
	if gotQ != 0 {
		t.Fatalf("queued = %v, want 0 (idle container)", gotQ)
	}
	if gotP != 10*sim.Millisecond {
		t.Fatalf("processing = %v, want 10ms (uncontended)", gotP)
	}
	if c.Completed != 1 {
		t.Fatalf("completed = %d", c.Completed)
	}
}

func TestQueueingDelay(t *testing.T) {
	eng, cl := testCluster(t, 1)
	rs, _ := cl.DeployService("svc", 1, V(1, 10000, 38, 1000, 1000))
	c := rs.Pick()
	var queued []sim.Time
	for i := 0; i < 3; i++ {
		c.Submit(Work{
			Base:   10 * sim.Millisecond,
			Demand: V(1, 0, 0, 0, 0),
			To:     callbacks{done: func(q, p sim.Time) { queued = append(queued, q) }},
		})
	}
	eng.RunUntil(sim.Second)
	if len(queued) != 3 {
		t.Fatalf("completed %d, want 3", len(queued))
	}
	if queued[0] != 0 {
		t.Fatalf("first item queued %v", queued[0])
	}
	if queued[1] < 9*sim.Millisecond || queued[2] < 19*sim.Millisecond {
		t.Fatalf("FIFO queueing delays wrong: %v", queued)
	}
}

func TestWorkerPoolConcurrency(t *testing.T) {
	eng, cl := testCluster(t, 1)
	rs, _ := cl.DeployService("svc", 1, V(4, 10000, 38, 1000, 1000))
	c := rs.Pick()
	doneAt := make([]sim.Time, 0, 4)
	for i := 0; i < 4; i++ {
		c.Submit(Work{
			Base:   10 * sim.Millisecond,
			Demand: V(1, 0, 0, 0, 0),
			To:     callbacks{done: func(q, p sim.Time) { doneAt = append(doneAt, eng.Now()) }},
		})
	}
	eng.RunUntil(sim.Second)
	if len(doneAt) != 4 {
		t.Fatalf("completed %d", len(doneAt))
	}
	// With 4 workers all four finish at the same instant (no queueing).
	for _, d := range doneAt {
		if d != doneAt[0] {
			t.Fatalf("4 workers should finish together: %v", doneAt)
		}
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.QueueCap = 2
	cfg.NoiseSD = 0
	cl := New(eng, cfg)
	cl.AddNode(XeonProfile)
	rs, _ := cl.DeployService("svc", 1, V(1, 10000, 38, 1000, 1000))
	c := rs.Pick()
	drops := 0
	for i := 0; i < 5; i++ {
		c.Submit(Work{
			Base:   time10ms(),
			Demand: V(1, 0, 0, 0, 0),
			To:     callbacks{drop: func() { drops++ }},
		})
	}
	// 1 in flight + 2 queued; the remaining 2 dropped synchronously.
	if drops != 2 || c.Dropped != 2 {
		t.Fatalf("drops = %d, counter = %d, want 2", drops, c.Dropped)
	}
	eng.RunUntil(sim.Second)
	if c.Completed != 3 {
		t.Fatalf("completed = %d, want 3", c.Completed)
	}
}

func time10ms() sim.Time { return 10 * sim.Millisecond }

// callbacks adapts closures to Receiver; either may be nil.
type callbacks struct {
	done func(queued, processing sim.Time)
	drop func()
}

func (c callbacks) WorkDone(_ uint64, queued, processing sim.Time) {
	if c.done != nil {
		c.done(queued, processing)
	}
}

func (c callbacks) WorkDropped(uint64) {
	if c.drop != nil {
		c.drop()
	}
}

// tokenLog records, in order, the tokens of completed and dropped work.
type tokenLog struct{ done, dropped []uint64 }

func (l *tokenLog) WorkDone(tok uint64, _, _ sim.Time) { l.done = append(l.done, tok) }
func (l *tokenLog) WorkDropped(tok uint64)             { l.dropped = append(l.dropped, tok) }

// wrappedQueue returns a one-worker container whose FIFO ring has wrapped:
// tokens 0-2 are done, 3 is executing, and 4-10 are queued with the oldest
// near the end of the ring's backing array and the newest at its start.
func wrappedQueue(t *testing.T) (*sim.Engine, *ReplicaSet, *Container, *tokenLog) {
	t.Helper()
	eng, cl := testCluster(t, 1)
	rs, _ := cl.DeployService("svc", 1, V(1, 10000, 38, 1000, 1000))
	c := rs.Pick()
	log := &tokenLog{}
	submit := func(from, to uint64) {
		for tok := from; tok <= to; tok++ {
			c.Submit(Work{Base: 10 * sim.Millisecond, Demand: V(1, 0, 0, 0, 0), To: log, Token: tok})
		}
	}
	submit(0, 5)
	eng.RunUntil(25 * sim.Millisecond) // 0, 1 done at 10, 20ms; 2 executing
	eng.Step()                         // 2 done at 30ms, 3 starts
	submit(6, 10)
	if len(log.done) != 3 || c.Busy() != 1 || c.QueueLen() != 7 {
		t.Fatalf("setup: done %v, busy %d, queued %d; want 3 done, 1 busy, 7 queued", log.done, c.Busy(), c.QueueLen())
	}
	if c.queue.head+c.queue.n <= len(c.queue.buf) {
		t.Fatalf("setup: ring not wrapped (head %d, len %d, cap %d)", c.queue.head, c.queue.n, len(c.queue.buf))
	}
	return eng, rs, c, log
}

func TestQueueRingFIFOAcrossWrap(t *testing.T) {
	eng, _, c, log := wrappedQueue(t)
	// Grow the wrapped ring: the copy must keep FIFO order.
	for tok := uint64(11); tok <= 14; tok++ {
		c.Submit(Work{Base: 10 * sim.Millisecond, Demand: V(1, 0, 0, 0, 0), To: log, Token: tok})
	}
	if c.QueueLen() != 11 {
		t.Fatalf("QueueLen = %d after growth, want 11", c.QueueLen())
	}
	for want := 11; want >= 0; want-- {
		if got := c.QueueLen(); got != want {
			t.Fatalf("QueueLen = %d, want %d", got, want)
		}
		eng.Step()
	}
	eng.RunUntil(sim.Second)
	for i, tok := range log.done {
		if tok != uint64(i) {
			t.Fatalf("completion order %v, want 0..14 in FIFO order", log.done)
		}
	}
	if len(log.done) != 15 || len(log.dropped) != 0 {
		t.Fatalf("done %v, dropped %v", log.done, log.dropped)
	}
}

func TestRemoveReplicaDropsWrappedQueueInOrder(t *testing.T) {
	eng, rs, c, log := wrappedQueue(t)
	if !rs.RemoveReplica(c) {
		t.Fatal("RemoveReplica failed")
	}
	want := []uint64{4, 5, 6, 7, 8, 9, 10}
	if len(log.dropped) != len(want) {
		t.Fatalf("dropped %v, want %v", log.dropped, want)
	}
	for i := range want {
		if log.dropped[i] != want[i] {
			t.Fatalf("dropped %v, want FIFO order %v", log.dropped, want)
		}
	}
	if c.QueueLen() != 0 || c.Dropped != 7 {
		t.Fatalf("after removal: QueueLen %d, Dropped %d", c.QueueLen(), c.Dropped)
	}
	eng.RunUntil(sim.Second) // the executing item still completes
	if len(log.done) != 4 || log.done[3] != 3 {
		t.Fatalf("done %v, want in-flight 3 to complete", log.done)
	}
}

func TestNotReadyDrops(t *testing.T) {
	eng, cl := testCluster(t, 1)
	rs, _ := cl.DeployService("svc", 1, V(1, 1000, 4, 100, 100))
	// Add a replica with warm start; before the delay it must not be picked
	// and direct submits are dropped.
	c2, err := rs.AddReplica(V(1, 1000, 4, 100, 100), false, false)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Ready() {
		t.Fatal("replica ready before start delay")
	}
	dropped := false
	c2.Submit(Work{Base: sim.Millisecond, To: callbacks{drop: func() { dropped = true }}})
	if !dropped {
		t.Fatal("submit to non-ready container must drop")
	}
	eng.RunUntil(sim.Second)
	if !c2.Ready() {
		t.Fatal("replica should be ready after warm start delay")
	}
}

func TestColdStartSlower(t *testing.T) {
	eng, cl := testCluster(t, 1)
	rs, _ := cl.DeployService("svc", 1, V(1, 1000, 4, 100, 100))
	warm, _ := rs.AddReplica(V(1, 1000, 4, 100, 100), false, false)
	cold, _ := rs.AddReplica(V(1, 1000, 4, 100, 100), true, false)
	eng.RunUntil(sim.FromMillis(100))
	if !warm.Ready() || cold.Ready() {
		t.Fatal("warm should be ready at 100ms, cold should not")
	}
	eng.RunUntil(sim.FromMillis(3000))
	if !cold.Ready() {
		t.Fatal("cold replica should be ready by 3s")
	}
}

func TestContentionSlowdownNodeLevel(t *testing.T) {
	eng, cl := testCluster(t, 1)
	node := cl.Nodes()[0]
	rs, _ := cl.DeployService("svc", 1, V(2, 2000, 4, 100, 100))
	c := rs.Pick()

	var base sim.Time
	c.Submit(Work{Base: 10 * sim.Millisecond, Demand: V(1, 500, 0, 0, 0),
		To: callbacks{done: func(q, p sim.Time) { base = p }}})
	eng.RunUntil(sim.Second)

	// Saturate node memory bandwidth 2x via injected anomaly.
	node.SetInjectedLoad(V(0, 2*node.Capacity()[MemBW], 0, 0, 0))
	var contended sim.Time
	c.Submit(Work{Base: 10 * sim.Millisecond, Demand: V(1, 500, 0, 0, 0),
		To: callbacks{done: func(q, p sim.Time) { contended = p }}})
	eng.RunUntil(2 * sim.Second)

	if contended <= base {
		t.Fatalf("contended %v should exceed base %v", contended, base)
	}
	if float64(contended)/float64(base) < 1.5 {
		t.Fatalf("2x membw oversubscription should slow >=1.5x, got %.2fx",
			float64(contended)/float64(base))
	}
	node.SetInjectedLoad(Vector{})
	var recovered sim.Time
	c.Submit(Work{Base: 10 * sim.Millisecond, Demand: V(1, 500, 0, 0, 0),
		To: callbacks{done: func(q, p sim.Time) { recovered = p }}})
	eng.RunUntil(3 * sim.Second)
	if recovered != base {
		t.Fatalf("after clearing anomaly, latency %v should return to %v", recovered, base)
	}
}

func TestContainerTargetedCPUStressor(t *testing.T) {
	eng, cl := testCluster(t, 1)
	rs, _ := cl.DeployService("svc", 1, V(1, 10000, 38, 1000, 1000))
	c := rs.Pick()
	var base sim.Time
	c.Submit(Work{Base: 10 * sim.Millisecond, Demand: V(1, 0, 0, 0, 0),
		To: callbacks{done: func(q, p sim.Time) { base = p }}})
	eng.RunUntil(sim.Second)

	c.SetInjectedLoad(V(1, 0, 0, 0, 0)) // stressor eats a full core
	var stressed sim.Time
	c.Submit(Work{Base: 10 * sim.Millisecond, Demand: V(1, 0, 0, 0, 0),
		To: callbacks{done: func(q, p sim.Time) { stressed = p }}})
	eng.RunUntil(2 * sim.Second)
	if stressed <= base {
		t.Fatalf("CPU stressor must slow container: base %v stressed %v", base, stressed)
	}
	// Node-level usage must NOT include the targeted CPU stressor.
	if cl.Nodes()[0].InjectedLoad()[CPU] != 0 {
		t.Fatal("CPU stressor leaked to node-level injected load")
	}
}

func TestScaleUpMitigatesContention(t *testing.T) {
	// A container whose memory-bandwidth limit is the bottleneck should
	// speed up when the limit is raised — the basic premise of FIRM's
	// scale-up action.
	eng, cl := testCluster(t, 1)
	rs, _ := cl.DeployService("svc", 1, V(2, 200, 4, 100, 100))
	c := rs.Pick()
	var before sim.Time
	c.Submit(Work{Base: 10 * sim.Millisecond, Demand: V(1, 600, 0, 0, 0),
		To: callbacks{done: func(q, p sim.Time) { before = p }}})
	eng.RunUntil(sim.Second)

	c.SetLimits(V(2, 1000, 4, 100, 100))
	var after sim.Time
	c.Submit(Work{Base: 10 * sim.Millisecond, Demand: V(1, 600, 0, 0, 0),
		To: callbacks{done: func(q, p sim.Time) { after = p }}})
	eng.RunUntil(2 * sim.Second)
	if after >= before {
		t.Fatalf("raising membw limit must reduce latency: before %v after %v", before, after)
	}
}

func TestSetLimitsClampedToCapacityAndFloor(t *testing.T) {
	_, cl := testCluster(t, 1)
	rs, _ := cl.DeployService("svc", 1, V(2, 1000, 4, 100, 100))
	c := rs.Pick()
	c.SetLimits(V(10000, 1e9, 1e9, 1e9, 1e9))
	cap := cl.Nodes()[0].Capacity()
	if c.Limits() != cap {
		t.Fatalf("limits %v not clamped to capacity %v", c.Limits(), cap)
	}
	c.SetLimits(V(0, 0, 0, 0, 0))
	if c.Limits() != cl.Config().MinLimit {
		t.Fatalf("limits %v not floored at %v", c.Limits(), cl.Config().MinLimit)
	}
}

func TestCPUAllocTracksLimits(t *testing.T) {
	_, cl := testCluster(t, 1)
	node := cl.Nodes()[0]
	rs, _ := cl.DeployService("svc", 2, V(3, 1000, 4, 100, 100))
	if got := node.CPUAllocated(); got != 6 {
		t.Fatalf("allocated = %v, want 6", got)
	}
	c := rs.Containers()[0]
	c.SetLimits(V(5, 1000, 4, 100, 100))
	if got := node.CPUAllocated(); got != 8 {
		t.Fatalf("allocated = %v, want 8", got)
	}
	rs.RemoveReplica(c)
	if got := node.CPUAllocated(); got != 3 {
		t.Fatalf("allocated = %v, want 3", got)
	}
	if got := cl.TotalRequestedCPU(); got != 3 {
		t.Fatalf("TotalRequestedCPU = %v, want 3", got)
	}
}

func TestPlacementPrefersFreeNode(t *testing.T) {
	eng := sim.NewEngine(1)
	cl := New(eng, DefaultConfig())
	n0 := cl.AddNode(XeonProfile)
	n1 := cl.AddNode(XeonProfile)
	rs, _ := cl.DeployService("a", 1, V(40, 1000, 4, 100, 100))
	if rs.Containers()[0].Node() != n0 && rs.Containers()[0].Node() != n1 {
		t.Fatal("container not placed")
	}
	first := rs.Containers()[0].Node()
	rs2, _ := cl.DeployService("b", 1, V(10, 1000, 4, 100, 100))
	if rs2.Containers()[0].Node() == first {
		t.Fatal("second container should go to the freer node")
	}
}

func TestPlacementExhaustion(t *testing.T) {
	eng := sim.NewEngine(1)
	cl := New(eng, DefaultConfig())
	cl.AddNode(XeonProfile) // 56 cores
	if _, err := cl.DeployService("big", 1, V(50, 1000, 4, 100, 100)); err != nil {
		t.Fatal(err)
	}
	rs := cl.ReplicaSet("big")
	if _, err := rs.AddReplica(V(50, 1000, 4, 100, 100), false, true); err != ErrNoCapacity {
		t.Fatalf("want ErrNoCapacity, got %v", err)
	}
}

func TestRoundRobinPick(t *testing.T) {
	_, cl := testCluster(t, 1)
	rs, _ := cl.DeployService("svc", 3, V(1, 1000, 4, 100, 100))
	seen := map[string]int{}
	for i := 0; i < 9; i++ {
		seen[rs.Pick().ID]++
	}
	if len(seen) != 3 {
		t.Fatalf("round robin hit %d containers, want 3", len(seen))
	}
	for id, n := range seen {
		if n != 3 {
			t.Fatalf("container %s picked %d times", id, n)
		}
	}
}

func TestPickSkipsNotReady(t *testing.T) {
	_, cl := testCluster(t, 1)
	rs, _ := cl.DeployService("svc", 1, V(1, 1000, 4, 100, 100))
	rs.AddReplica(V(1, 1000, 4, 100, 100), false, false) // not ready yet
	for i := 0; i < 10; i++ {
		if c := rs.Pick(); !c.Ready() {
			t.Fatal("picked a non-ready container")
		}
	}
	if rs.ReadyCount() != 1 {
		t.Fatalf("ready = %d", rs.ReadyCount())
	}
}

func TestUtilizationAccounting(t *testing.T) {
	eng, cl := testCluster(t, 1)
	rs, _ := cl.DeployService("svc", 1, V(2, 1000, 4, 100, 100))
	c := rs.Pick()
	c.Submit(Work{Base: 100 * sim.Millisecond, Demand: V(1, 500, 1, 0, 0)})
	eng.RunUntil(10 * sim.Millisecond) // mid-flight
	u := c.Utilization()
	if math.Abs(u[CPU]-0.5) > 1e-9 {
		t.Fatalf("CPU util = %v, want 0.5 (1 of 2 cores)", u[CPU])
	}
	if math.Abs(u[MemBW]-0.5) > 1e-9 {
		t.Fatalf("MemBW util = %v, want 0.5", u[MemBW])
	}
	eng.RunUntil(sim.Second)
	u = c.Utilization()
	if u[CPU] != 0 || u[MemBW] != 0 {
		t.Fatalf("idle utilization = %v, want zeros", u)
	}
	if n := cl.Nodes()[0].Usage(); n != (Vector{}) {
		t.Fatalf("node usage after drain = %v, want zeros", n)
	}
}

func TestNodeEffectiveDemandCappedByLimit(t *testing.T) {
	eng, cl := testCluster(t, 1)
	node := cl.Nodes()[0]
	rs, _ := cl.DeployService("svc", 1, V(2, 300, 4, 100, 100))
	c := rs.Pick()
	c.Submit(Work{Base: 100 * sim.Millisecond, Demand: V(1, 5000, 0, 0, 0)})
	eng.RunUntil(10 * sim.Millisecond)
	if got := node.Usage()[MemBW]; got > 300+1e-9 {
		t.Fatalf("node membw usage %v exceeds container limit 300 (partition not enforced)", got)
	}
	eng.RunUntil(sim.Second)
}

func TestRemoveReplicaDropsQueuedWork(t *testing.T) {
	eng, cl := testCluster(t, 1)
	rs, _ := cl.DeployService("svc", 1, V(1, 1000, 4, 100, 100))
	c := rs.Pick()
	drops := 0
	for i := 0; i < 3; i++ {
		c.Submit(Work{Base: 50 * sim.Millisecond, Demand: V(1, 0, 0, 0, 0),
			To: callbacks{drop: func() { drops++ }}})
	}
	rs.RemoveReplica(c)
	if drops != 2 { // 1 in flight, 2 queued -> dropped
		t.Fatalf("drops = %d, want 2", drops)
	}
	eng.RunUntil(sim.Second)
	if rs.Pick() != nil {
		t.Fatal("no replicas should remain")
	}
}

func TestDuplicateServiceRejected(t *testing.T) {
	_, cl := testCluster(t, 1)
	if _, err := cl.DeployService("svc", 1, V(1, 1000, 4, 100, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.DeployService("svc", 1, V(1, 1000, 4, 100, 100)); err == nil {
		t.Fatal("duplicate service must be rejected")
	}
}

func TestFractionalCPUInflatesServiceTime(t *testing.T) {
	eng, cl := testCluster(t, 1)
	rs, _ := cl.DeployService("svc", 1, V(0.5, 10000, 38, 1000, 1000))
	c := rs.Pick()
	var p sim.Time
	c.Submit(Work{Base: 10 * sim.Millisecond, Demand: V(0.4, 0, 0, 0, 0),
		To: callbacks{done: func(q, pp sim.Time) { p = pp }}})
	eng.RunUntil(sim.Second)
	if p < 19*sim.Millisecond {
		t.Fatalf("0.5 CPU should roughly double 10ms work, got %v", p)
	}
}

func TestPerCoreDRAMAccessSignal(t *testing.T) {
	eng, cl := testCluster(t, 1)
	node := cl.Nodes()[0]
	rs, _ := cl.DeployService("svc", 1, V(2, 1000, 4, 100, 100))
	base := node.PerCoreDRAMAccess()
	c := rs.Pick()
	c.Submit(Work{Base: 100 * sim.Millisecond, Demand: V(1, 800, 0, 0, 0)})
	eng.RunUntil(10 * sim.Millisecond)
	if node.PerCoreDRAMAccess() <= base {
		t.Fatal("per-core DRAM proxy should rise with in-flight membw demand")
	}
	eng.RunUntil(sim.Second)
}

func TestPpc64ProfileSpeedFactor(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.NoiseSD = 0
	cl := New(eng, cfg)
	cl.AddNode(PowerProfile)
	rs, _ := cl.DeployService("svc", 1, V(2, 1000, 4, 100, 100))
	c := rs.Pick()
	var p sim.Time
	c.Submit(Work{Base: 10 * sim.Millisecond, Demand: V(1, 0, 0, 0, 0),
		To: callbacks{done: func(q, pp sim.Time) { p = pp }}})
	eng.RunUntil(sim.Second)
	want := sim.Time(float64(10*sim.Millisecond) * PowerProfile.SpeedFactor)
	if p != want {
		t.Fatalf("ppc64 processing = %v, want %v", p, want)
	}
}

// Property: usage accounting always returns to zero after all work drains,
// regardless of the submission pattern.
func TestPropertyUsageDrainsToZero(t *testing.T) {
	f := func(bases []uint8, seed int64) bool {
		eng := sim.NewEngine(seed)
		cfg := DefaultConfig()
		cl := New(eng, cfg)
		cl.AddNode(XeonProfile)
		rs, err := cl.DeployService("svc", 2, V(2, 500, 4, 100, 100))
		if err != nil {
			return false
		}
		for _, b := range bases {
			c := rs.Pick()
			c.Submit(Work{
				Base:   sim.Time(b)*sim.Millisecond + 1,
				Demand: V(1, float64(b)*10, 0.5, 5, 5),
			})
		}
		eng.RunUntil(sim.Hour)
		for _, c := range rs.Containers() {
			if c.Busy() != 0 || c.QueueLen() != 0 {
				return false
			}
			u := c.Usage()
			for _, x := range u {
				if x > 1e-6 {
					return false
				}
			}
		}
		nu := cl.Nodes()[0].Usage()
		for _, x := range nu {
			if x > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: completed + dropped == submitted for any workload burst.
func TestPropertyConservationOfRequests(t *testing.T) {
	f := func(n uint8, seed int64) bool {
		eng := sim.NewEngine(seed)
		cfg := DefaultConfig()
		cfg.QueueCap = 4
		cl := New(eng, cfg)
		cl.AddNode(XeonProfile)
		rs, _ := cl.DeployService("svc", 1, V(1, 500, 4, 100, 100))
		c := rs.Pick()
		var done, dropped int
		for i := 0; i < int(n); i++ {
			c.Submit(Work{
				Base:   sim.Millisecond,
				Demand: V(1, 0, 0, 0, 0),
				To: callbacks{
					done: func(q, p sim.Time) { done++ },
					drop: func() { dropped++ },
				},
			})
		}
		eng.RunUntil(sim.Hour)
		return done+dropped == int(n) &&
			uint64(done) == c.Completed && uint64(dropped) == c.Dropped
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
