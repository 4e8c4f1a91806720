package app

import (
	"testing"

	"firm/internal/cluster"
	"firm/internal/sim"
	"firm/internal/topology"
	"firm/internal/trace"
	"firm/internal/tracedb"
)

// harness deploys a spec on a fresh 4-node one-shard cluster with
// deterministic service times and returns the pieces. Tests advance time
// through the returned engine and schedule on a.Engine().
func harness(t *testing.T, spec *topology.Spec, seed int64) (*sim.ShardedEngine, *App, *tracedb.Store) {
	t.Helper()
	se := sim.NewShardedEngine(seed, 1, spec.BaseRPCDelay)
	cfg := cluster.DefaultConfig()
	cfg.NoiseSD = 0
	cl := cluster.New(se.Shard(0), cfg)
	for i := 0; i < 4; i++ {
		cl.AddNode(cluster.XeonProfile)
	}
	db := tracedb.New(10000)
	coord := trace.NewCoordinator(se.Shard(0), db)
	a, err := DeployOne(se, cl, spec, coord)
	if err != nil {
		t.Fatal(err)
	}
	return se, a, db
}

func TestDeployCreatesAllServices(t *testing.T) {
	_, a, _ := harness(t, topology.SocialNetwork(), 1)
	for name := range a.Spec.Services {
		rs := a.Cluster().ReplicaSet(name)
		if rs == nil || rs.ReadyCount() < 1 {
			t.Fatalf("service %s not deployed/ready", name)
		}
	}
}

func TestSubmitCompletesWithTrace(t *testing.T) {
	eng, a, db := harness(t, topology.SocialNetwork(), 1)
	var res Result
	gotResult := false
	if err := a.Submit("compose-post", func(r Result) { res = r; gotResult = true }); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10 * sim.Second)
	if !gotResult {
		t.Fatal("request never completed")
	}
	if res.Dropped || res.Latency <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
	traces := db.Select(tracedb.Query{})
	if len(traces) != 1 {
		t.Fatalf("stored %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if tr.Type != "compose-post" {
		t.Fatalf("trace type %q", tr.Type)
	}
	// Fig. 2(b) participants must all have spans, including the background
	// write path.
	want := []string{"nginx", "video", "user-tag", "unique-id", "text",
		"compose-post", "write-timeline"}
	seen := map[string]bool{}
	for _, sp := range tr.Spans {
		seen[sp.Service] = true
	}
	for _, s := range want {
		if !seen[s] {
			t.Fatalf("missing span for %s in %v", s, tr.Services())
		}
	}
}

func TestBackgroundSpansMarked(t *testing.T) {
	eng, a, db := harness(t, topology.SocialNetwork(), 1)
	a.Submit("compose-post", nil)
	eng.RunUntil(10 * sim.Second)
	tr := db.Select(tracedb.Query{})[0]
	foundBg := false
	for _, sp := range tr.Spans {
		if sp.Service == "write-timeline" {
			if !sp.Background {
				t.Fatal("write-timeline span must be background")
			}
			foundBg = true
		}
		if sp.Service == "nginx" && sp.Background {
			t.Fatal("root must not be background")
		}
	}
	if !foundBg {
		t.Fatal("no background span found")
	}
}

func TestParallelChildrenOverlap(t *testing.T) {
	eng, a, db := harness(t, topology.SocialNetwork(), 1)
	a.Submit("compose-post", nil)
	eng.RunUntil(10 * sim.Second)
	tr := db.Select(tracedb.Query{})[0]
	spanOf := func(svc string) trace.Span {
		for _, sp := range tr.Spans {
			if sp.Service == svc {
				return sp
			}
		}
		t.Fatalf("span %s missing", svc)
		return trace.Span{}
	}
	v, u, txt := spanOf("video"), spanOf("user-tag"), spanOf("text")
	// Parallel spans must overlap pairwise (paper's definition in §3.2).
	overlap := func(a, b trace.Span) bool { return a.Start < b.End && b.Start < a.End }
	if !overlap(v, u) || !overlap(v, txt) || !overlap(u, txt) {
		t.Fatalf("parallel spans do not overlap: V=%v U=%v T=%v", v, u, txt)
	}
	// Sequential: unique-id starts after user-tag's local compute, and
	// compose-post starts only after all parallel children end.
	i := spanOf("unique-id")
	if i.Start < u.Start {
		t.Fatal("unique-id must start after user-tag starts")
	}
	c := spanOf("compose-post")
	for _, sp := range []trace.Span{v, u, txt} {
		if c.Start < sp.End {
			t.Fatalf("compose-post started before parallel child ended")
		}
	}
}

func TestSequentialHappensBefore(t *testing.T) {
	eng, a, db := harness(t, topology.TrainTicket(), 1)
	a.Submit("query-ticket", nil)
	eng.RunUntil(10 * sim.Second)
	tr := db.Select(tracedb.Query{})[0]
	var travel, seat trace.Span
	for _, sp := range tr.Spans {
		switch sp.Service {
		case "ts-travel":
			travel = sp
		case "ts-seat":
			seat = sp
		}
	}
	if travel.ID == 0 || seat.ID == 0 {
		t.Fatal("expected ts-travel and ts-seat spans")
	}
	if seat.Start < travel.End {
		t.Fatal("ts-seat must start after ts-travel completes (sequential)")
	}
}

func TestSubmitMixRespectsWeights(t *testing.T) {
	eng, a, _ := harness(t, topology.HotelReservation(), 7)
	counts := map[string]int{}
	r := sim.Stream(7, "mix")
	for i := 0; i < 3000; i++ {
		i := i
		a.Engine().Schedule(sim.Time(i)*sim.Millisecond*5, func() {
			a.SubmitMix(r, func(res Result) { counts[res.Type]++ })
		})
	}
	eng.RunUntil(sim.Minute)
	if len(counts) != 3 {
		t.Fatalf("endpoint coverage: %v", counts)
	}
	// search-hotels has weight 0.55; expect it to dominate.
	if counts["search-hotels"] < counts["recommend"] || counts["search-hotels"] < counts["reserve"] {
		t.Fatalf("mix weights not respected: %v", counts)
	}
}

func TestUnknownEndpointErrors(t *testing.T) {
	_, a, _ := harness(t, topology.HotelReservation(), 1)
	if err := a.Submit("nope", nil); err == nil {
		t.Fatal("unknown endpoint must error")
	}
}

func TestViolationAccounting(t *testing.T) {
	eng, a, _ := harness(t, topology.HotelReservation(), 1)
	a.SLO = 1 * sim.Microsecond // everything violates
	a.Submit("recommend", nil)
	eng.RunUntil(10 * sim.Second)
	if a.Completed != 1 || a.Violations != 1 {
		t.Fatalf("completed=%d violations=%d", a.Completed, a.Violations)
	}
	a.SLO = sim.Minute // nothing violates
	a.Submit("recommend", nil)
	eng.RunUntil(20 * sim.Second)
	if a.Completed != 2 || a.Violations != 1 {
		t.Fatalf("completed=%d violations=%d", a.Completed, a.Violations)
	}
}

func TestDropPropagatesToResult(t *testing.T) {
	eng, a, db := harness(t, topology.HotelReservation(), 1)
	// Remove all replicas of a service on the critical path of "reserve".
	rs := a.Cluster().ReplicaSet("ts-nonexistent")
	if rs != nil {
		t.Fatal("sanity")
	}
	userRS := a.Cluster().ReplicaSet("user")
	for _, c := range append([]*cluster.Container(nil), userRS.Containers()...) {
		userRS.RemoveReplica(c)
	}
	var res Result
	got := false
	a.Submit("reserve", func(r Result) { res = r; got = true })
	eng.RunUntil(10 * sim.Second)
	if !got || !res.Dropped {
		t.Fatalf("expected dropped result, got %+v (got=%v)", res, got)
	}
	if a.Dropped != 1 {
		t.Fatalf("dropped counter = %d", a.Dropped)
	}
	trs := db.Select(tracedb.Query{IncludeDrop: true})
	if len(trs) != 1 || !trs[0].Dropped {
		t.Fatal("dropped trace must be stored with Dropped=true")
	}
}

func TestResultHookObservesAll(t *testing.T) {
	eng, a, _ := harness(t, topology.HotelReservation(), 1)
	n := 0
	a.SetResultHook(func(Result) { n++ })
	for i := 0; i < 5; i++ {
		i := i
		a.Engine().Schedule(sim.Time(i)*100*sim.Millisecond, func() { a.Submit("recommend", nil) })
	}
	eng.RunUntil(sim.Minute)
	if n != 5 {
		t.Fatalf("hook saw %d results, want 5", n)
	}
}

func TestCalibrateSetsSLO(t *testing.T) {
	_, a, _ := harness(t, topology.HotelReservation(), 1)
	p99 := a.Calibrate(10, 1.5)
	if p99 <= 0 {
		t.Fatal("calibration returned no latency")
	}
	if a.SLO != sim.FromMillis(p99*1.5) {
		t.Fatalf("SLO %v not p99*margin", a.SLO)
	}
}

func TestTraceLatencyMatchesResult(t *testing.T) {
	eng, a, db := harness(t, topology.MediaService(), 3)
	var res Result
	a.Submit("read-page", func(r Result) { res = r })
	eng.RunUntil(10 * sim.Second)
	tr := db.Select(tracedb.Query{})[0]
	root := tr.Root()
	if root.Service != "nginx" {
		t.Fatalf("root service %s", root.Service)
	}
	// Root span excludes only the client<->nginx hops; result latency must
	// be >= root span duration and close to it.
	if res.Latency < root.Duration() {
		t.Fatalf("result latency %v < root span %v", res.Latency, root.Duration())
	}
	if res.Latency > root.Duration()+10*sim.Millisecond {
		t.Fatalf("result latency %v too far above root span %v", res.Latency, root.Duration())
	}
	// Without background work the trace seals when the response reaches the
	// client, so the stored trace's latency is the request's.
	if tr.Latency() != res.Latency {
		t.Fatalf("trace latency %v != result latency %v", tr.Latency(), res.Latency)
	}
}

func TestAllBenchmarksExecuteAllEndpoints(t *testing.T) {
	for _, spec := range topology.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			eng, a, db := harness(t, spec, 11)
			for _, ep := range spec.Endpoints {
				if err := a.Submit(ep.Name, nil); err != nil {
					t.Fatal(err)
				}
			}
			eng.RunUntil(sim.Minute)
			if int(a.Completed) != len(spec.Endpoints) {
				t.Fatalf("completed %d of %d endpoints (dropped %d)",
					a.Completed, len(spec.Endpoints), a.Dropped)
			}
			for _, tr := range db.Select(tracedb.Query{}) {
				if err := tr.Validate(); err != nil {
					t.Errorf("%s: %v", tr.Type, err)
				}
			}
		})
	}
}

func TestCoordinatorNoPendingLeak(t *testing.T) {
	eng, a, _ := harness(t, topology.SocialNetwork(), 1)
	for i := 0; i < 20; i++ {
		i := i
		a.Engine().Schedule(sim.Time(i)*50*sim.Millisecond, func() { a.SubmitMix(sim.Stream(1, "x"), nil) })
	}
	eng.RunUntil(sim.Minute)
	if a.Coord.PendingCount() != 0 {
		t.Fatalf("coordinator leaked %d pending traces", a.Coord.PendingCount())
	}
}

// twoTierSpec is a minimal client->a->b workflow for fault-hook tests.
func twoTierSpec() *topology.Spec {
	leaf := &topology.Call{Service: "svc-b", Compute: 2 * sim.Millisecond}
	root := &topology.Call{Service: "svc-a", Compute: 1 * sim.Millisecond,
		Children: []topology.Child{{Mode: topology.Seq, Call: leaf}}}
	mk := func(name string, class topology.ServiceClass) *topology.Service {
		return &topology.Service{Name: name, Class: class, Replicas: 1,
			Demand: cluster.V(1, 150, 0.5, 5, 80),
			Limits: cluster.V(2, 600, 2, 50, 300)}
	}
	return &topology.Spec{
		Name: "twotier",
		Services: map[string]*topology.Service{
			"svc-a": mk("svc-a", topology.Web),
			"svc-b": mk("svc-b", topology.Logic),
		},
		Endpoints:    []topology.Endpoint{{Name: "get", Weight: 1, Root: root}},
		SLO:          500 * sim.Millisecond,
		BaseRPCDelay: 300 * sim.Microsecond,
	}
}

func TestRetryRecoversShedCall(t *testing.T) {
	run := func(policy *RetryPolicy) Result {
		eng, a, _ := harness(t, twoTierSpec(), 1)
		a.SetRetryPolicy(policy)
		rs := a.Cluster().ReplicaSet("svc-b")
		victim := rs.Containers()[0]
		limits := victim.Limits()
		if !rs.RemoveReplica(victim) {
			t.Fatal("could not remove svc-b replica")
		}
		// Capacity returns after 20ms; only a retrying client survives.
		a.Engine().Schedule(20*sim.Millisecond, func() {
			if _, err := rs.AddReplica(limits, false, true); err != nil {
				t.Fatal(err)
			}
		})
		var res Result
		done := false
		a.Submit("get", func(r Result) { res = r; done = true })
		eng.RunUntil(eng.Now() + 5*sim.Second)
		if !done {
			t.Fatal("request never finished")
		}
		return res
	}
	if res := run(nil); !res.Dropped {
		t.Fatalf("without retries the shed call must drop the request: %+v", res)
	}
	res := run(&RetryPolicy{MaxRetries: 5, Backoff: 10 * sim.Millisecond})
	if res.Dropped {
		t.Fatalf("with retries the request must recover: %+v", res)
	}
	if res.Latency < 20*sim.Millisecond {
		t.Fatalf("recovered latency %v should include the backoff wait", res.Latency)
	}
}

func TestEdgeFaultDelayAddsToHops(t *testing.T) {
	run := func(faults map[Edge]EdgeFault) Result {
		eng, a, _ := harness(t, twoTierSpec(), 1)
		a.SetEdgeFaults(faults, 0)
		var res Result
		a.Submit("get", func(r Result) { res = r })
		eng.RunUntil(eng.Now() + 5*sim.Second)
		return res
	}
	base := run(nil)
	delayed := run(map[Edge]EdgeFault{
		{From: "svc-a", To: "svc-b"}: {Delay: 50 * sim.Millisecond},
	})
	if base.Dropped || delayed.Dropped {
		t.Fatalf("no request should drop: base=%+v delayed=%+v", base, delayed)
	}
	// The fault edge is traversed twice (request + response hop).
	extra := delayed.Latency - base.Latency
	if extra < 100*sim.Millisecond {
		t.Fatalf("edge delay added %v, want >= 100ms", extra)
	}
}

func TestEdgeFaultDropLosesRPC(t *testing.T) {
	eng, a, db := harness(t, twoTierSpec(), 1)
	a.SetEdgeFaults(map[Edge]EdgeFault{
		{From: "svc-a", To: "svc-b"}: {Drop: 1},
	}, 7)
	var res Result
	done := false
	a.Submit("get", func(r Result) { res = r; done = true })
	eng.RunUntil(eng.Now() + 5*sim.Second)
	if !done {
		t.Fatal("request never finished")
	}
	if !res.Dropped {
		t.Fatalf("certain drop on the only child edge must drop the request: %+v", res)
	}
	for _, tr := range db.Select(tracedb.Query{}) {
		for _, sp := range tr.Spans {
			if sp.Service == "svc-b" {
				t.Fatal("dropped RPC must not reach svc-b")
			}
		}
	}
}
