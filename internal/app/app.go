// Package app executes microservice applications on the simulated cluster:
// it deploys a topology.Spec's services as replica sets, routes user
// requests through endpoint workflow trees (sequential, parallel, and
// background composition), and emits spans to the tracing coordinator —
// producing the execution history graphs FIRM's Extractor consumes.
//
// An App runs across the shards of a sim.ShardedEngine: every service's
// replica set lives wholly on one shard (with its own cluster of nodes),
// and every inter-service call — including calls between services that
// share a shard — travels as a ShardedEngine mail. The paper testbed is the
// degenerate case of one shard. Routing always paying the mail path is what
// makes the execution identical at any shard count: a one-shard run
// performs exactly the same sends with exactly the same keys as an
// eight-shard run, so the event sequence (and therefore every latency,
// drop, and counter) is byte-identical.
//
// Partition confinement fixes where each decision is made. Replica
// selection happens on the callee's shard (the caller cannot touch another
// shard's round-robin cursor), so a no-ready-replica shed — and an RPC
// lost to an edge fault — is observed by the caller one round trip later.
// Retries are scheduled by the caller when a shed result arrives. Edge
// faults are applied by the callee, and their loss draws are a hash of the
// fault seed and the call's mail key, so they never depend on which shard
// draws them. The trace coordinator is a single-engine structure: spans are
// emitted only when one is attached, and Deploy accepts one only on a
// one-shard engine. The retry policy and edge faults are read by every
// shard; arming them while a multi-shard run is in progress is a data race,
// so mid-run arming is a one-shard feature.
//
// The request path allocates nothing at steady state. Each shard owns a
// pool of call frames (one per call its services are serving) and is the
// sim.Handler of every event and mail addressed to it; the payload words
// name the frame. The home shard owns a pool of request records.
package app

import (
	"fmt"
	"math/rand"
	"sort"

	"firm/internal/cluster"
	"firm/internal/sim"
	"firm/internal/stats"
	"firm/internal/topology"
	"firm/internal/trace"
)

// Result reports the outcome of one user request.
type Result struct {
	Trace   trace.TraceID
	Type    string
	Latency sim.Time
	Dropped bool
}

// RetryPolicy models client-side retries: a shed or dropped call is
// re-submitted up to MaxRetries times after a fixed Backoff. Under
// overload, retries amplify offered load — the storm the scenario library
// exploits.
type RetryPolicy struct {
	MaxRetries int      // re-submissions per call beyond the first attempt
	Backoff    sim.Time // wait before each re-submission
}

// Edge identifies a directed caller→callee service pair. The caller of an
// endpoint root is the pseudo-service "client".
type Edge struct {
	From, To string
}

// EdgeFault degrades one dependency edge: Delay is added to each RPC hop
// on the edge and Drop is the probability an RPC on the edge is lost
// before reaching the callee (a lost RPC behaves like a routing shed:
// retriable, no span).
type EdgeFault struct {
	Delay sim.Time
	Drop  float64
}

// App is a deployed application instance.
type App struct {
	Spec *topology.Spec
	// Coord, when non-nil, receives every call's client-observed span and
	// assembles each request's trace. Only a one-shard app has one.
	Coord *trace.Coordinator

	se       *sim.ShardedEngine
	home     int
	delay    sim.Time   // BaseRPCDelay; also the engine's lookahead
	calls    []callInfo // by call index; read-only after Deploy
	roots    []uint32   // root call index per endpoint, in Spec.Endpoints order
	shards   []*appShard
	clusters []*cluster.Cluster

	// SLO is the end-to-end latency objective (the spec's by default);
	// Calibrate sets it from the uncontended latency profile.
	SLO sim.Time

	// Cumulative request counters; owned by the home shard.
	Completed  uint64
	Dropped    uint64
	Violations uint64

	// Request records and their free list; owned by the home shard.
	reqs    []request
	reqFree []uint32

	nextTrace uint64
	onResult  func(Result)

	// retry, if set, re-submits shed or dropped calls (client-side retry
	// amplification — the retry-storm degradation mode). Nil means one
	// attempt per call.
	retry *RetryPolicy

	// faults holds each call's edge fault by call index (nil when no edge
	// is degraded); faultSeed keys its loss draws.
	faults    []EdgeFault
	faultSeed uint64
}

// callInfo is one workflow call resolved at deploy time, so a hop costs no
// map lookup.
type callInfo struct {
	shard   int
	rs      *cluster.ReplicaSet
	service string
	caller  string // the calling service, "client" for an endpoint root
	compute sim.Time
	demand  cluster.Vector
	// bg lists the Background children, all fired when the call's own work
	// is done; groups lists the awaited children in order, one group per
	// run of consecutive Par children or per Seq child.
	bg     []uint32
	groups [][]uint32
}

// Mail-key layout: (trace << 29) | (call index << 9) | (attempt << 3) |
// kind. Each (trace, call, attempt, kind) is sent at most once per
// request, so keys are unique among mails sharing a timestamp — the
// ShardedEngine contract. The kinds above dirDrained tag local events,
// whose key word is never a mail key: the callee's arrival after the
// instance hop, and the caller's retry after the backoff.
const (
	dirCall    = 0
	dirResult  = 1
	dirDrained = 2
	evArrive   = 3
	evRetry    = 4

	maxCallIdx  = 1 << 20
	maxAttempts = 1 << 6
)

func mailKey(tr uint64, idx, att uint32, dir uint64) uint64 {
	return tr<<29 | uint64(idx)<<9 | uint64(att)<<3 | dir
}

// splitKey returns a key's trace, call index and attempt.
func splitKey(key uint64) (tr uint64, idx, att uint32) {
	return key >> 29, uint32(key>>9) & (maxCallIdx - 1), uint32(key>>3) & (maxAttempts - 1)
}

// A call mail's argument word names the caller: bits 0-31 index its frame
// (or, with parentRequest, the home shard's request record) and bits 32-47
// its shard. The callee keeps the word and returns it on its result and
// drained mails, adding the outcome flags.
const (
	parentRequest = 1 << 48 // the caller is a request record, not a frame
	parentBgChild = 1 << 49 // the caller does not await this call's result
	resultOK      = 1 << 50 // the call succeeded
	resultDrained = 1 << 51 // a result mail that also reports the drain
	resultShed    = 1 << 52 // shed or lost before its work ran: retriable

	resultFlags = resultOK | resultDrained | resultShed
	maxShards   = 1 << 16
)

func parentWord(shard int, index uint32) uint64 { return uint64(shard)<<32 | uint64(index) }

// Deploy builds an application over already-deployed per-shard clusters.
// assign maps every service to its shard; clusters[i] is shard i's cluster
// and must already hold replica sets for the services assigned to it (the
// sharded harness deploys them with DeployServiceOn to realise a globally
// computed placement). home is the shard that owns request admission and
// result accounting; the workload generator must run on its engine. coord,
// if non-nil, receives spans; it requires a one-shard engine and must be
// built on that shard's engine.
func Deploy(se *sim.ShardedEngine, spec *topology.Spec, home int, assign map[string]int, clusters []*cluster.Cluster, coord *trace.Coordinator) (*App, error) {
	if len(clusters) != se.Shards() {
		return nil, fmt.Errorf("app %s: %d clusters for %d shards", spec.Name, len(clusters), se.Shards())
	}
	if se.Shards() > maxShards {
		return nil, fmt.Errorf("app %s: %d shards exceed the %d mail-argument limit", spec.Name, se.Shards(), maxShards)
	}
	if coord != nil && se.Shards() > 1 {
		return nil, fmt.Errorf("app %s: a trace coordinator needs a one-shard engine, not %d shards", spec.Name, se.Shards())
	}
	if home < 0 || home >= se.Shards() {
		return nil, fmt.Errorf("app %s: home shard %d out of range", spec.Name, home)
	}
	if spec.BaseRPCDelay < se.Lookahead() {
		return nil, fmt.Errorf("app %s: BaseRPCDelay %v below engine lookahead %v", spec.Name, spec.BaseRPCDelay, se.Lookahead())
	}
	a := &App{
		Spec:     spec,
		Coord:    coord,
		se:       se,
		home:     home,
		delay:    spec.BaseRPCDelay,
		SLO:      spec.SLO,
		shards:   make([]*appShard, se.Shards()),
		clusters: clusters,
	}
	for i := range a.shards {
		a.shards[i] = &appShard{app: a, id: i}
	}
	for _, name := range sortedServices(spec) {
		sh, ok := assign[name]
		if !ok || sh < 0 || sh >= se.Shards() {
			return nil, fmt.Errorf("app %s: service %s has no valid shard assignment", spec.Name, name)
		}
		if clusters[sh].ReplicaSet(name) == nil {
			return nil, fmt.Errorf("app %s: service %s not deployed on shard %d", spec.Name, name, sh)
		}
	}
	// Number every workflow call by DFS in endpoint order — a pure function
	// of the spec, so mail keys are identical at every shard count.
	callIdx := make(map[*topology.Call]uint32)
	var n uint32
	for i := range spec.Endpoints {
		topology.Walk(spec.Endpoints[i].Root, func(c *topology.Call) {
			callIdx[c] = n
			n++
		})
	}
	if n >= maxCallIdx {
		return nil, fmt.Errorf("app %s: %d workflow calls exceed the %d mail-key limit", spec.Name, n, maxCallIdx)
	}
	a.calls = make([]callInfo, n)
	a.roots = make([]uint32, len(spec.Endpoints))
	var err error
	for i := range spec.Endpoints {
		root := spec.Endpoints[i].Root
		a.roots[i] = callIdx[root]
		a.calls[callIdx[root]].caller = "client"
		topology.Walk(root, func(c *topology.Call) {
			svc, ok := spec.Services[c.Service]
			if !ok {
				err = fmt.Errorf("app %s: call to unknown service %s", spec.Name, c.Service)
				return
			}
			sh := assign[c.Service]
			ci := &a.calls[callIdx[c]]
			ci.shard, ci.rs, ci.service = sh, clusters[sh].ReplicaSet(c.Service), c.Service
			ci.compute, ci.demand = c.Compute, svc.Demand
			kids := c.Children
			for _, k := range kids {
				a.calls[callIdx[k.Call]].caller = c.Service
			}
			for k := 0; k < len(kids); k++ {
				switch kids[k].Mode {
				case topology.Background:
					ci.bg = append(ci.bg, callIdx[kids[k].Call])
				case topology.Par:
					g := []uint32{callIdx[kids[k].Call]}
					for k+1 < len(kids) && kids[k+1].Mode == topology.Par {
						k++
						g = append(g, callIdx[kids[k].Call])
					}
					ci.groups = append(ci.groups, g)
				case topology.Seq:
					ci.groups = append(ci.groups, []uint32{callIdx[kids[k].Call]})
				}
			}
		})
	}
	if err != nil {
		return nil, err
	}
	return a, nil
}

// DeployOne deploys every service of spec on cl — the cluster of se's only
// shard — in sorted name order, so container IDs and placement are
// reproducible run to run, and builds the app over it. Containers start
// ready. This is the paper testbed's shape.
func DeployOne(se *sim.ShardedEngine, cl *cluster.Cluster, spec *topology.Spec, coord *trace.Coordinator) (*App, error) {
	if se.Shards() != 1 {
		return nil, fmt.Errorf("app %s: DeployOne needs a one-shard engine, not %d shards", spec.Name, se.Shards())
	}
	assign := make(map[string]int, len(spec.Services))
	for _, name := range sortedServices(spec) {
		svc := spec.Services[name]
		if _, err := cl.DeployService(svc.Name, svc.Replicas, svc.Limits); err != nil {
			return nil, fmt.Errorf("app %s: %w", spec.Name, err)
		}
		assign[name] = 0
	}
	return Deploy(se, spec, 0, assign, []*cluster.Cluster{cl}, coord)
}

func sortedServices(spec *topology.Spec) []string {
	names := make([]string, 0, len(spec.Services))
	for name := range spec.Services {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Engine returns the home shard's engine (the workload generator's clock).
func (a *App) Engine() *sim.Engine { return a.se.Shard(a.home) }

// Cluster returns the home shard's cluster — the whole cluster of a
// one-shard app.
func (a *App) Cluster() *cluster.Cluster { return a.clusters[a.home] }

// SetResultHook registers an observer invoked for every request outcome.
func (a *App) SetResultHook(fn func(Result)) { a.onResult = fn }

// SetRetryPolicy arms (or, with nil, disarms) client-side retries. Arm it
// before a multi-shard run; a one-shard app may be re-armed mid-run.
func (a *App) SetRetryPolicy(p *RetryPolicy) {
	if p != nil && p.MaxRetries >= maxAttempts {
		panic(fmt.Sprintf("app: %d retries exceed the %d-attempt mail-key limit", p.MaxRetries, maxAttempts))
	}
	a.retry = p
}

// RetryPolicy returns the armed retry policy, or nil.
func (a *App) RetryPolicy() *RetryPolicy { return a.retry }

// SetEdgeFaults installs per-edge network faults; an empty map restores
// fault-free behaviour. Loss draws are a hash of seed (which the caller
// derives with sim.DeriveSeed) and the call attempt's mail key, so they
// are the same at any shard count and arming faults on edge X does not
// perturb traffic elsewhere. Arm them before a multi-shard run; a
// one-shard app may be re-armed mid-run.
func (a *App) SetEdgeFaults(faults map[Edge]EdgeFault, seed int64) {
	a.faultSeed = uint64(seed)
	if len(faults) == 0 {
		a.faults = nil
		return
	}
	a.faults = make([]EdgeFault, len(a.calls))
	for i := range a.calls {
		a.faults[i] = faults[Edge{From: a.calls[i].caller, To: a.calls[i].service}]
	}
}

// lost reports whether the call attempt with mail key key is lost to an
// edge fault of loss probability p: a SplitMix64 hash of the fault seed
// and the key, mapped to [0,1).
func (a *App) lost(key uint64, p float64) bool {
	h := a.faultSeed ^ key
	h += 0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11)/(1<<53) < p
}

// InFlight returns the number of submitted requests that have not yet
// finished: every request is submitted, then counted exactly once as
// Completed or Dropped, so Completed + Dropped + InFlight() always equals
// the number submitted. Like the counters, it belongs to the home shard.
func (a *App) InFlight() int { return len(a.reqs) - len(a.reqFree) }

// request is one in-flight request's record on the home shard.
type request struct {
	tr      uint64
	typ     string
	start   sim.Time
	latency sim.Time
	dropped bool
	onDone  func(Result)
}

// Submit issues one request of the named endpoint type. It must be called
// from the home shard (at setup time or from an event executing on it).
// onDone may be nil.
func (a *App) Submit(endpoint string, onDone func(Result)) error {
	ep := -1
	for i := range a.Spec.Endpoints {
		if a.Spec.Endpoints[i].Name == endpoint {
			ep = i
			break
		}
	}
	if ep < 0 {
		return fmt.Errorf("app %s: unknown endpoint %q", a.Spec.Name, endpoint)
	}
	name := a.Spec.Endpoints[ep].Name
	var tr uint64
	if a.Coord != nil {
		tr = uint64(a.Coord.StartTrace(name))
	} else {
		a.nextTrace++
		tr = a.nextTrace
	}
	var r uint32
	if n := len(a.reqFree); n > 0 {
		r = a.reqFree[n-1]
		a.reqFree = a.reqFree[:n-1]
	} else {
		r = uint32(len(a.reqs))
		a.reqs = append(a.reqs, request{})
	}
	a.reqs[r] = request{tr: tr, typ: name, start: a.Engine().Now(), onDone: onDone}
	a.call(a.home, tr, a.roots[ep], 0, parentRequest|parentWord(a.home, r))
	return nil
}

// SubmitMix issues one request drawn from the endpoint mix using r,
// returning the chosen endpoint name.
func (a *App) SubmitMix(r *rand.Rand, onDone func(Result)) (string, error) {
	total := a.Spec.TotalWeight()
	x := r.Float64() * total
	name := a.Spec.Endpoints[len(a.Spec.Endpoints)-1].Name
	for _, ep := range a.Spec.Endpoints {
		x -= ep.Weight
		if x <= 0 {
			name = ep.Name
			break
		}
	}
	return name, a.Submit(name, onDone)
}

// finish runs on the home shard once request r's whole workflow tree —
// background branches included — has drained. The trace is sealed and the
// record released before the hooks run, so a hook may submit the next
// request.
func (a *App) finish(r uint32) {
	st := a.reqs[r]
	a.reqs[r] = request{}
	a.reqFree = append(a.reqFree, r)
	if a.Coord != nil {
		a.Coord.Finish(trace.TraceID(st.tr), st.dropped)
	}
	res := Result{Trace: trace.TraceID(st.tr), Type: st.typ, Latency: st.latency, Dropped: st.dropped}
	if st.dropped {
		a.Dropped++
	} else {
		a.Completed++
		if a.SLO > 0 && res.Latency > a.SLO {
			a.Violations++
		}
	}
	if a.onResult != nil {
		a.onResult(res)
	}
	if st.onDone != nil {
		st.onDone(res)
	}
}

// Calibrate measures the uncontended latency profile by running n requests
// of each endpoint at low rate on an idle cluster and sets
// SLO = P99 × margin, following the paper's setup where SLOs are defined
// relative to normal-operation latency. It returns the measured P99 (ms).
func (a *App) Calibrate(n int, margin float64) float64 {
	var lats []float64
	record := func(r Result) {
		if !r.Dropped {
			lats = append(lats, r.Latency.Millis())
		}
	}
	eng := a.Engine()
	interval := 5 * sim.Millisecond
	t := sim.Time(0)
	for i := 0; i < n; i++ {
		for _, ep := range a.Spec.Endpoints {
			name := ep.Name
			eng.Schedule(t, func() { _ = a.Submit(name, record) })
			t += interval
		}
	}
	a.se.RunUntil(a.se.Now() + t + 30*sim.Second)
	if len(lats) == 0 {
		return 0
	}
	p99 := stats.Percentile(lats, 99)
	a.SLO = sim.FromMillis(p99 * margin)
	return p99
}

// call dispatches attempt att of call idx of trace tr from the shard the
// caller is executing on. parent names the caller (see parentWord): the
// callee sends the call's result to it when the awaited subtree is done,
// and its drain when the entire subtree, background branches included, has
// finished. When both happen at the same instant they travel as one result
// mail flagged resultDrained, applied result first.
//
//firmvet:noalloc
func (a *App) call(from int, tr uint64, idx, att uint32, parent uint64) {
	to := a.calls[idx].shard
	a.se.Send(from, to, a.delay, a.shards[to], mailKey(tr, idx, att, dirCall), parent)
}

// reply sends a result or drained mail from shard from back to the caller
// that parent names.
//
//firmvet:noalloc
func (a *App) reply(from int, parent uint64, delay sim.Time, key, flags uint64) {
	to := int(parent >> 32 & (maxShards - 1))
	a.se.Send(from, to, delay, a.shards[to], key, parent|flags)
}

// appShard is one shard's part of an App: the sim.Handler of every event
// and mail addressed to the shard, the cluster.Receiver of its containers'
// work, and the owner of the frames of the calls its services serve. Only
// the shard's own goroutine touches it.
type appShard struct {
	app    *App
	id     int
	frames []frame
	free   []uint32 // released frame indices, reused LIFO
}

// frame is one call attempt being served: what the callee needs from the
// moment the call mail arrives until its drained mail leaves.
type frame struct {
	tr         uint64
	parent     uint64 // the call mail's argument word
	target     *cluster.Container
	hop        sim.Time // response delay: base RPC delay, edge delay and the instance's
	start      sim.Time // when the caller dispatched the call (the span's Start)
	queued     sim.Time
	span       trace.SpanID
	parentSpan trace.SpanID
	idx        uint32
	att        uint32
	group      int32 // awaited child group in flight
	remaining  int32 // calls of that group not yet answered
	drainLeft  int32 // child subtrees, background included, not yet drained
	ok         bool
	resultSent bool
}

// Handle implements sim.Handler: key is a mail key (or, for the local
// kinds, a key word tagged with one) and arg its argument word.
//
//firmvet:noalloc
func (s *appShard) Handle(key, arg uint64) {
	switch key & 7 {
	case dirCall:
		s.serve(key, arg)
	case dirResult:
		if arg&resultShed != 0 && s.retry(key, arg) {
			return
		}
		s.childResult(arg)
		if arg&resultDrained != 0 {
			s.childDrained(arg)
		}
	case dirDrained:
		s.childDrained(arg)
	case evArrive:
		fr := &s.frames[arg]
		ci := &s.app.calls[fr.idx]
		fr.target.Submit(cluster.Work{Base: ci.compute, Demand: ci.demand, To: s, Token: arg})
	case evRetry:
		tr, idx, att := splitKey(key)
		s.app.call(s.id, tr, idx, att, arg)
	}
}

// retry runs on the caller's shard when a shed result arrives: if the
// retry policy allows another attempt, it schedules the re-submission
// after the backoff and reports true. The shed result and its drain are
// then not applied, so the caller keeps waiting — and a trace cannot seal
// under a pending retry.
//
//firmvet:noalloc
func (s *appShard) retry(key, arg uint64) bool {
	p := s.app.retry
	tr, idx, att := splitKey(key)
	if p == nil || int(att) >= p.MaxRetries {
		return false
	}
	eng := s.app.se.Shard(s.id)
	eng.ScheduleEvent(eng.Now()+p.Backoff, s, mailKey(tr, idx, att+1, evRetry), arg&^resultFlags)
	return true
}

// serve runs on the callee's shard: apply the edge fault, pick a replica,
// pay the instance network delay, then occupy a worker for the compute
// (WorkDone continues).
//
//firmvet:noalloc
func (s *appShard) serve(key, parent uint64) {
	a := s.app
	tr, idx, att := splitKey(key)
	var fault EdgeFault
	if a.faults != nil {
		fault = a.faults[idx]
	}
	if fault.Drop > 0 && a.lost(key, fault.Drop) { // lost before reaching the callee
		a.reply(s.id, parent, a.delay, mailKey(tr, idx, att, dirResult), resultDrained|resultShed)
		return
	}
	target := a.calls[idx].rs.Pick()
	if target == nil { // no ready replica: shed at routing
		a.reply(s.id, parent, a.delay, mailKey(tr, idx, att, dirResult), resultDrained|resultShed)
		return
	}
	var f uint32
	if n := len(s.free); n > 0 {
		f = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		f = uint32(len(s.frames))
		s.frames = append(s.frames, frame{})
	}
	eng := a.se.Shard(s.id)
	nd := target.NetDelay() + fault.Delay
	s.frames[f] = frame{tr: tr, parent: parent, target: target, hop: a.delay + nd, start: eng.Now() - a.delay, idx: idx, att: att, ok: true}
	if a.Coord != nil {
		s.openSpan(&s.frames[f])
	}
	eng.ScheduleEvent(eng.Now()+nd, s, mailKey(tr, idx, att, evArrive), uint64(f))
}

// openSpan gives frame fr its span ID and its caller's. A coordinator
// implies one shard, so the caller's frame is in this shard's pool.
func (s *appShard) openSpan(fr *frame) {
	fr.span = s.app.Coord.NewSpanID()
	if fr.parent&parentRequest == 0 {
		fr.parentSpan = s.frames[uint32(fr.parent)].span
	}
}

// emitSpan reports frame fr's client-observed span, which ends at end:
// Dapper-style, it covers the full RPC boundary including both network
// hops, so a delay anomaly on the callee shows up in the callee's span —
// which is what the paper's localization relies on.
func (s *appShard) emitSpan(fr *frame, end sim.Time) {
	s.app.Coord.Emit(trace.Span{
		Trace:      trace.TraceID(fr.tr),
		ID:         fr.span,
		Parent:     fr.parentSpan,
		Service:    s.app.calls[fr.idx].service,
		Instance:   fr.target.ID,
		Start:      fr.start,
		End:        end,
		Queued:     fr.queued,
		Background: fr.parent&parentBgChild != 0,
	})
}

// WorkDropped implements cluster.Receiver: the replica shed the call, which
// still leaves a span (ending at the shed) and fails back to the caller.
//
//firmvet:noalloc
func (s *appShard) WorkDropped(token uint64) {
	fr := &s.frames[token]
	if s.app.Coord != nil {
		s.emitSpan(fr, s.app.se.Shard(s.id).Now())
	}
	s.app.reply(s.id, fr.parent, fr.hop, mailKey(fr.tr, fr.idx, fr.att, dirResult), resultDrained|resultShed)
	s.release(uint32(token))
}

// WorkDone implements cluster.Receiver: the call's own compute is done, so
// run its children (consecutive Par children concurrent, Seq barriers,
// Background fired and not awaited), then reply.
//
//firmvet:noalloc
func (s *appShard) WorkDone(token uint64, queued, _ sim.Time) {
	f := uint32(token)
	fr := &s.frames[f]
	fr.queued = queued
	for _, c := range s.app.calls[fr.idx].bg {
		fr.drainLeft++
		s.app.call(s.id, fr.tr, c, 0, parentBgChild|parentWord(s.id, f))
	}
	s.runGroup(f, 0)
}

// runGroup calls every member of frame f's awaited group g, or sends the
// result once all groups are done.
//
//firmvet:noalloc
func (s *appShard) runGroup(f uint32, g int32) {
	fr := &s.frames[f]
	groups := s.app.calls[fr.idx].groups
	if int(g) >= len(groups) {
		s.sendResult(f)
		return
	}
	fr.group, fr.remaining = g, int32(len(groups[g]))
	for _, c := range groups[g] {
		fr.drainLeft++
		s.app.call(s.id, fr.tr, c, 0, parentWord(s.id, f))
	}
}

// sendResult replies once the awaited groups finish. The drained mail
// follows when every child subtree has drained; if that is already so —
// a leaf call — the two collapse into one mail.
//
//firmvet:noalloc
func (s *appShard) sendResult(f uint32) {
	fr := &s.frames[f]
	fr.resultSent = true
	if s.app.Coord != nil {
		s.emitSpan(fr, s.app.se.Shard(s.id).Now()+fr.hop)
	}
	var flags uint64
	if fr.ok {
		flags = resultOK
	}
	key := mailKey(fr.tr, fr.idx, fr.att, dirResult)
	if fr.drainLeft == 0 {
		s.app.reply(s.id, fr.parent, fr.hop, key, flags|resultDrained)
		s.release(f)
		return
	}
	s.app.reply(s.id, fr.parent, fr.hop, key, flags)
}

// childResult applies a result mail to the caller it names.
//
//firmvet:noalloc
func (s *appShard) childResult(arg uint64) {
	if arg&parentBgChild != 0 {
		return // background results are not awaited
	}
	ok := arg&resultOK != 0
	if arg&parentRequest != 0 {
		st := &s.app.reqs[uint32(arg)]
		st.latency = s.app.Engine().Now() - st.start
		st.dropped = !ok
		return
	}
	f := uint32(arg)
	fr := &s.frames[f]
	if !ok {
		fr.ok = false
	}
	fr.remaining--
	if fr.remaining == 0 {
		s.runGroup(f, fr.group+1)
	}
}

// childDrained applies a child subtree's drain to the caller it names.
//
//firmvet:noalloc
func (s *appShard) childDrained(arg uint64) {
	if arg&parentRequest != 0 {
		s.app.finish(uint32(arg))
		return
	}
	f := uint32(arg)
	fr := &s.frames[f]
	fr.drainLeft--
	if fr.drainLeft == 0 && fr.resultSent {
		s.app.reply(s.id, fr.parent, fr.hop, mailKey(fr.tr, fr.idx, fr.att, dirDrained), 0)
		s.release(f)
	}
}

// release returns frame f to the pool, dropping its container reference.
//
//firmvet:noalloc
func (s *appShard) release(f uint32) {
	s.frames[f] = frame{}
	s.free = append(s.free, f)
}
