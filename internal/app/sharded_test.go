package app

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"firm/internal/cluster"
	"firm/internal/sim"
	"firm/internal/topology"
	"firm/internal/trace"
)

// shardedBed deploys spec across shards with one node per service, so every
// container's contention neighbourhood is the same at any shard count.
// Services go to shards round-robin in sorted name order; the home shard is
// the one hosting the first endpoint's root service.
func shardedBed(t *testing.T, spec *topology.Spec, shards int, cfg cluster.Config) (*App, []*cluster.Cluster) {
	t.Helper()
	se := sim.NewShardedEngine(1, shards, spec.BaseRPCDelay)
	cfg.PerInstanceNoise = true
	cfg.NoiseSeed = 1
	clusters := make([]*cluster.Cluster, shards)
	for i := range clusters {
		clusters[i] = cluster.New(se.Shard(i), cfg)
	}
	names := make([]string, 0, len(spec.Services))
	for name := range spec.Services {
		names = append(names, name)
	}
	sort.Strings(names)
	assign := make(map[string]int, len(names))
	for i, name := range names {
		sh := i % shards
		assign[name] = sh
		svc := spec.Services[name]
		node := clusters[sh].AddNode(cluster.XeonProfile)
		if _, err := clusters[sh].DeployServiceOn(node, name, svc.Replicas, svc.Limits); err != nil {
			t.Fatal(err)
		}
	}
	a, err := Deploy(se, spec, assign[spec.Endpoints[0].Root.Service], assign, clusters, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a, clusters
}

// compositionSpec exercises each composition mode under a 1ms front-end
// "r": leaves "a" and "b" take 10ms each, "x" 50ms, "s" 100ms.
func compositionSpec() *topology.Spec {
	call := func(svc string, ms float64, kids ...topology.Child) *topology.Call {
		return &topology.Call{Service: svc, Compute: sim.FromMillis(ms), Children: kids}
	}
	r := func(kids ...topology.Child) *topology.Call { return call("r", 1, kids...) }
	seq := func(c *topology.Call) topology.Child { return topology.Child{Mode: topology.Seq, Call: c} }
	par := func(c *topology.Call) topology.Child { return topology.Child{Mode: topology.Par, Call: c} }
	bg := func(c *topology.Call) topology.Child { return topology.Child{Mode: topology.Background, Call: c} }
	services := map[string]*topology.Service{}
	for _, name := range []string{"r", "a", "b", "x", "s"} {
		services[name] = &topology.Service{Name: name, Class: topology.Logic, Replicas: 1,
			Demand: cluster.V(1, 150, 0.5, 5, 80), Limits: cluster.V(2, 600, 2, 50, 300)}
	}
	return &topology.Spec{
		Name:     "composition",
		Services: services,
		Endpoints: []topology.Endpoint{
			{Name: "solo", Weight: 1, Root: r()},
			{Name: "one", Weight: 1, Root: r(seq(call("a", 10)))},
			{Name: "seq", Weight: 1, Root: r(seq(call("a", 10)), seq(call("b", 10)))},
			{Name: "par", Weight: 1, Root: r(par(call("a", 10)), par(call("b", 10)))},
			{Name: "bg", Weight: 1, Root: r(bg(call("x", 50)))},
			{Name: "slow", Weight: 1, Root: call("s", 100)},
		},
		SLO:          sim.Second,
		BaseRPCDelay: 300 * sim.Microsecond,
	}
}

// observed is one request outcome plus the home-shard time it finished.
type observed struct {
	res        Result
	submitted  sim.Time
	finishedAt sim.Time
}

// submitAt schedules one request of endpoint on the home shard at time at.
func submitAt(t *testing.T, a *App, at sim.Time, endpoint string, out *observed) {
	t.Helper()
	eng := a.Engine()
	eng.Schedule(at-eng.Now(), func() {
		out.submitted = eng.Now()
		if err := a.Submit(endpoint, func(r Result) { out.res, out.finishedAt = r, eng.Now() }); err != nil {
			t.Error(err)
		}
	})
}

// assertDrained checks that once every request has finished, every pooled
// request record and call frame is back on its free list.
func assertDrained(t *testing.T, a *App) {
	t.Helper()
	if n := a.InFlight(); n != 0 {
		t.Fatalf("%d requests still in flight", n)
	}
	for _, s := range a.shards {
		if len(s.free) != len(s.frames) {
			t.Fatalf("shard %d: %d of %d call frames not released", s.id, len(s.frames)-len(s.free), len(s.frames))
		}
	}
}

// runIsolated runs each endpoint's request alone, a second apart, on a
// noise-free cluster and returns the outcomes by endpoint.
func runIsolated(t *testing.T, endpoints ...string) map[string]observed {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.NoiseSD = 0
	a, _ := shardedBed(t, compositionSpec(), 2, cfg)
	obs := make([]observed, len(endpoints))
	for i, ep := range endpoints {
		submitAt(t, a, sim.Time(i+1)*sim.Second, ep, &obs[i])
	}
	a.se.RunFor(sim.Time(len(endpoints)+2) * sim.Second)
	out := make(map[string]observed, len(endpoints))
	for i, ep := range endpoints {
		if obs[i].finishedAt == 0 || obs[i].res.Dropped {
			t.Fatalf("%s: request did not complete: %+v", ep, obs[i])
		}
		out[ep] = obs[i]
	}
	assertDrained(t, a)
	return out
}

func TestShardedSeqBarrierAndParOverlap(t *testing.T) {
	o := runIsolated(t, "solo", "one", "seq", "par")
	solo, one := o["solo"].res.Latency, o["one"].res.Latency
	step := one - solo // one awaited 10ms call: two hops plus its compute
	if step < 10*sim.Millisecond {
		t.Fatalf("a 10ms child added only %v", step)
	}
	// Seq: b is called only after a's result is back, so it pays a second step.
	if got := o["seq"].res.Latency; got != one+step {
		t.Fatalf("seq latency %v, want %v (two back-to-back steps of %v)", got, one+step, step)
	}
	// Par: a and b run concurrently, so the pair costs one step.
	if got := o["par"].res.Latency; got != one {
		t.Fatalf("par latency %v, want %v (siblings overlap)", got, one)
	}
}

func TestShardedBackgroundDrainsBeforeFinish(t *testing.T) {
	o := runIsolated(t, "solo", "bg")
	solo, bg := o["solo"], o["bg"]
	if bg.res.Latency != solo.res.Latency {
		t.Fatalf("background child was awaited: latency %v, solo %v", bg.res.Latency, solo.res.Latency)
	}
	// The request finishes only once x's 50ms subtree has drained back.
	if took := bg.finishedAt - bg.submitted; took < bg.res.Latency+50*sim.Millisecond {
		t.Fatalf("finished %v after submit; background work (50ms) had not drained", took)
	}
}

func TestShardedShedAndFullQueueDrop(t *testing.T) {
	t.Run("no ready replica", func(t *testing.T) {
		a, clusters := shardedBed(t, compositionSpec(), 2, cluster.DefaultConfig())
		for _, cl := range clusters {
			if rs := cl.ReplicaSet("a"); rs != nil {
				for _, c := range append([]*cluster.Container(nil), rs.Containers()...) {
					rs.RemoveReplica(c)
				}
			}
		}
		var o observed
		submitAt(t, a, sim.Millisecond, "one", &o)
		a.se.RunFor(sim.Second)
		if !o.res.Dropped || a.Dropped != 1 || a.Completed != 0 {
			t.Fatalf("shed call: result %+v, dropped=%d completed=%d", o.res, a.Dropped, a.Completed)
		}
		assertDrained(t, a)
	})
	t.Run("full queue", func(t *testing.T) {
		cfg := cluster.DefaultConfig()
		cfg.QueueCap = 1
		a, _ := shardedBed(t, compositionSpec(), 2, cfg)
		// "s" has two workers and one queue slot: of five simultaneous
		// requests, three are admitted and two are shed.
		obs := make([]observed, 5)
		for i := range obs {
			submitAt(t, a, sim.Millisecond, "slow", &obs[i])
		}
		a.se.RunFor(sim.Second)
		dropped := 0
		for _, o := range obs {
			if o.finishedAt == 0 {
				t.Fatalf("request never finished: %+v", o)
			}
			if o.res.Dropped {
				dropped++
			}
		}
		if dropped != 2 || a.Dropped != 2 || a.Completed != 3 {
			t.Fatalf("dropped results %d, counters dropped=%d completed=%d; want 2/2/3", dropped, a.Dropped, a.Completed)
		}
		assertDrained(t, a)
	})
}

// shardedOutcomes drives a generated topology with a burst-heavy request
// stream and returns every Result in completion order plus the counters.
// armed arms, before the run, client retries and a lossy, delayed edge.
func shardedOutcomes(t *testing.T, shards int, armed bool) string {
	t.Helper()
	spec, err := topology.Generate(topology.Params{Services: 30, Endpoints: 3, MaxFanout: 3, Depth: 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.DefaultConfig()
	cfg.QueueCap = 4
	a, _ := shardedBed(t, spec, shards, cfg)
	if armed {
		a.SetRetryPolicy(&RetryPolicy{MaxRetries: 2, Backoff: 3 * sim.Millisecond})
		e := spec.Edges()[0]
		a.SetEdgeFaults(map[Edge]EdgeFault{
			{From: e[0], To: e[1]}: {Delay: 2 * sim.Millisecond, Drop: 0.3},
		}, sim.DeriveSeed(5, "edge-faults"))
	}
	var b strings.Builder
	a.SetResultHook(func(r Result) {
		fmt.Fprintf(&b, "%d %s %d %v\n", r.Trace, r.Type, r.Latency, r.Dropped)
	})
	eng := a.Engine()
	r := sim.Stream(5, "sharded-outcomes")
	for i := 0; i < 400; i++ {
		at := sim.Time(i/20) * 25 * sim.Millisecond // bursts of 20 every 25ms
		eng.Schedule(at, func() {
			if _, err := a.SubmitMix(r, nil); err != nil {
				t.Error(err)
			}
		})
	}
	a.se.RunFor(3 * sim.Second)
	fmt.Fprintf(&b, "completed=%d dropped=%d violations=%d", a.Completed, a.Dropped, a.Violations)
	return b.String()
}

func TestShardedResultsIdenticalAcrossShardCounts(t *testing.T) {
	var unarmed string
	for _, armed := range []bool{false, true} {
		base := shardedOutcomes(t, 1, armed)
		if !strings.Contains(base, "true\n") || !strings.Contains(base, "false\n") {
			t.Fatalf("armed=%v: workload should both complete and drop requests:\n%s", armed, base)
		}
		for _, shards := range []int{2, 3} {
			if got := shardedOutcomes(t, shards, armed); got != base {
				t.Fatalf("armed=%v shards=%d diverged from shards=1:\n got: %.300s\nwant: %.300s", armed, shards, got, base)
			}
		}
		if !armed {
			unarmed = base
		} else if base == unarmed {
			t.Fatal("retries and the edge fault changed no outcome; the armed inputs are vacuous")
		}
	}
}

func TestDeployRejectsCoordinatorOnShards(t *testing.T) {
	spec := compositionSpec()
	a, clusters := shardedBed(t, spec, 2, cluster.DefaultConfig())
	assign := make(map[string]int, len(spec.Services))
	for name := range spec.Services {
		for i, cl := range clusters {
			if cl.ReplicaSet(name) != nil {
				assign[name] = i
			}
		}
	}
	coord := trace.NewCoordinator(a.Engine(), nil)
	if _, err := Deploy(a.se, spec, a.home, assign, clusters, coord); err == nil {
		t.Fatal("a trace coordinator on a two-shard engine must be rejected")
	}
	if _, err := Deploy(a.se, spec, a.home, assign, clusters, nil); err != nil {
		t.Fatalf("the same deployment without a coordinator: %v", err)
	}
}
