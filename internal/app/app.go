// Package app executes microservice applications on the simulated cluster:
// it deploys a topology.Spec's services as replica sets, routes user
// requests through endpoint workflow trees (sequential, parallel, and
// background composition), and emits spans to the tracing coordinator —
// producing the execution history graphs FIRM's Extractor consumes.
package app

import (
	"fmt"
	"math/rand"
	"sort"

	"firm/internal/cluster"
	"firm/internal/sim"
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

// App is a deployed application instance.
type App struct {
	Spec  *topology.Spec
	Coord *trace.Coordinator

	eng *sim.Engine
	cl  *cluster.Cluster

	// SLO is the end-to-end latency objective; Calibrate sets it from the
	// uncontended latency profile.
	SLO sim.Time

	// Cumulative request counters.
	Completed  uint64
	Dropped    uint64
	Violations uint64

	// onResult, if set, observes every request outcome (used by workload
	// recorders and the FIRM detector).
	onResult func(Result)

	// retry, if set, re-submits shed or dropped calls (client-side retry
	// amplification — the retry-storm degradation mode). Nil means the
	// pre-scenario behavior: one attempt per call.
	retry *RetryPolicy

	// edgeFaults, if non-empty, degrades specific caller→callee edges with
	// added delay and probabilistic loss (partial network partitions).
	// faultRng drives the loss draws; it must be scenario-seeded so runs
	// stay deterministic per (Spec, seed).
	edgeFaults map[Edge]EdgeFault
	faultRng   *rand.Rand
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

// SetRetryPolicy arms (or, with nil, disarms) client-side retries.
func (a *App) SetRetryPolicy(p *RetryPolicy) { a.retry = p }

// RetryPolicy returns the armed retry policy, or nil.
func (a *App) RetryPolicy() *RetryPolicy { return a.retry }

// SetEdgeFaults installs per-edge network faults. rng drives drop draws
// and must be seeded via sim.DeriveSeed by the caller; a nil map (or nil
// rng with any Drop > 0) restores fault-free behavior. No RNG is consumed
// on edges without faults, so arming faults on edge X does not perturb
// traffic elsewhere.
func (a *App) SetEdgeFaults(faults map[Edge]EdgeFault, rng *rand.Rand) {
	a.edgeFaults = faults
	a.faultRng = rng
}

// reqCtx tracks one in-flight request across its workflow closures.
type reqCtx struct {
	app         *App
	id          trace.TraceID
	typ         string
	start       sim.Time
	outstanding int  // spans not yet emitted (incl. background)
	rootDone    bool // root call completed or dropped
	dropped     bool
	latency     sim.Time
	onDone      func(Result)
	finished    bool
}

// Deploy builds a cluster application: one replica set per service with the
// spec's initial replica counts and limits. Containers start ready. Services
// deploy in sorted name order so container IDs and placement are
// reproducible run to run.
func Deploy(eng *sim.Engine, cl *cluster.Cluster, spec *topology.Spec, coord *trace.Coordinator) (*App, error) {
	a := &App{Spec: spec, Coord: coord, eng: eng, cl: cl, SLO: spec.SLO}
	names := make([]string, 0, len(spec.Services))
	for name := range spec.Services {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		svc := spec.Services[name]
		if _, err := cl.DeployService(svc.Name, svc.Replicas, svc.Limits); err != nil {
			return nil, fmt.Errorf("app %s: %w", spec.Name, err)
		}
	}
	return a, nil
}

// Cluster returns the hosting cluster.
func (a *App) Cluster() *cluster.Cluster { return a.cl }

// Engine returns the simulation engine.
func (a *App) Engine() *sim.Engine { return a.eng }

// SetResultHook registers an observer invoked for every request outcome.
func (a *App) SetResultHook(fn func(Result)) { a.onResult = fn }

// Submit issues one request of the named endpoint type. onDone may be nil.
func (a *App) Submit(endpoint string, onDone func(Result)) error {
	ep := a.Spec.EndpointByName(endpoint)
	if ep == nil {
		return fmt.Errorf("app %s: unknown endpoint %q", a.Spec.Name, endpoint)
	}
	ctx := &reqCtx{
		app:    a,
		id:     a.Coord.StartTrace(ep.Name),
		typ:    ep.Name,
		start:  a.eng.Now(),
		onDone: onDone,
	}
	a.exec(ctx, 0, "client", ep.Root, false, func(ok bool) {
		ctx.rootDone = true
		ctx.latency = a.eng.Now() - ctx.start
		if !ok {
			ctx.dropped = true
		}
		ctx.maybeFinish()
	})
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

// exec runs one workflow call: route to a replica, wait in its queue, do
// local compute, then run child groups, then report. Span.Start is arrival
// at the container (so spans include queueing, as real tracing does).
func (a *App) exec(ctx *reqCtx, parent trace.SpanID, caller string, call *topology.Call, background bool, onDone func(ok bool)) {
	a.execAttempt(ctx, parent, caller, call, background, 0, onDone)
}

// attempt is one try of one workflow call. It handles the attempt's
// engine events and receives its container work, so a hop costs one record
// instead of a closure per callback.
type attempt struct {
	a          *App
	ctx        *reqCtx
	parent     trace.SpanID
	caller     string
	call       *topology.Call
	background bool
	n          int // retries before this attempt
	onDone     func(ok bool)

	target   *cluster.Container
	spanID   trace.SpanID
	dispatch sim.Time
	hop      sim.Time
	queued   sim.Time
	ok       bool
}

// Event kinds of an attempt (the first payload word).
const (
	attemptArrive = iota // the request hop reached the callee
	attemptReply         // the response hop reached the caller
	attemptRetry         // the retry backoff elapsed
)

// execAttempt is one attempt of a workflow call. When a RetryPolicy is
// armed, a shed, partition-dropped, or queue-dropped attempt re-submits
// after Backoff; ctx.outstanding stays held across the wait so a trace
// cannot seal under a pending retry (including background stragglers).
func (a *App) execAttempt(ctx *reqCtx, parent trace.SpanID, caller string, call *topology.Call, background bool, n int, onDone func(ok bool)) {
	ctx.outstanding++
	at := &attempt{a: a, ctx: ctx, parent: parent, caller: caller, call: call, background: background, n: n, onDone: onDone}
	rs := a.cl.ReplicaSet(call.Service)
	var target *cluster.Container
	if rs != nil {
		target = rs.Pick()
	}
	if target == nil { // no ready replica: request shed at routing
		at.fail()
		return
	}
	at.target = target
	at.spanID = a.Coord.NewSpanID()
	// Spans are client-observed (Dapper-style): they cover the full RPC
	// boundary including both network hops, so a tc-delay anomaly on the
	// callee shows up in the callee's span — which is what the paper's
	// localization relies on.
	at.dispatch = a.eng.Now()
	at.hop = a.Spec.BaseRPCDelay + target.NetDelay()
	if len(a.edgeFaults) > 0 {
		if f, ok := a.edgeFaults[Edge{From: caller, To: call.Service}]; ok {
			if f.Drop > 0 && a.faultRng != nil && a.faultRng.Float64() < f.Drop {
				at.fail() // RPC lost in the partition before reaching the callee
				return
			}
			at.hop += f.Delay
		}
	}
	a.eng.ScheduleEvent(at.dispatch+at.hop, at, attemptArrive, 0)
}

// fail ends this attempt: either hand the held outstanding slot to a
// scheduled re-attempt, or report failure. The trailing maybeFinish is a
// no-op on synchronous paths (the root is never done yet) but seals traces
// whose last pending work was a failed asynchronous retry.
func (at *attempt) fail() {
	a := at.a
	if a.retry != nil && at.n < a.retry.MaxRetries {
		a.eng.ScheduleEvent(a.eng.Now()+a.retry.Backoff, at, attemptRetry, 0)
		return
	}
	at.ctx.outstanding--
	at.onDone(false)
	at.ctx.maybeFinish()
}

// Handle implements sim.Handler for the attempt's events.
func (at *attempt) Handle(kind, _ uint64) {
	a := at.a
	switch kind {
	case attemptArrive:
		at.target.Submit(cluster.Work{
			Base:   at.call.Compute,
			Demand: a.Spec.Services[at.call.Service].Demand,
			To:     at,
		})
	case attemptReply:
		a.Coord.Emit(trace.Span{
			Trace:      at.ctx.id,
			ID:         at.spanID,
			Parent:     at.parent,
			Service:    at.call.Service,
			Instance:   at.target.ID,
			Start:      at.dispatch,
			End:        a.eng.Now(),
			Queued:     at.queued,
			Background: at.background,
		})
		at.ctx.outstanding--
		at.onDone(at.ok)
		at.ctx.maybeFinish()
	case attemptRetry:
		at.ctx.outstanding--
		a.execAttempt(at.ctx, at.parent, at.caller, at.call, at.background, at.n+1, at.onDone)
	}
}

// WorkDone implements cluster.Receiver: run the child groups, then take
// the response hop back to the caller.
func (at *attempt) WorkDone(_ uint64, queued, _ sim.Time) {
	at.queued = queued
	at.a.runGroups(at.ctx, at.spanID, at.call.Service, at.call.Children, at.childrenDone)
}

func (at *attempt) childrenDone(ok bool) {
	at.ok = ok
	at.a.eng.ScheduleEvent(at.a.eng.Now()+at.hop, at, attemptReply, 0)
}

// WorkDropped implements cluster.Receiver: the callee's queue shed the
// work, which still leaves a span.
func (at *attempt) WorkDropped(uint64) {
	a := at.a
	a.Coord.Emit(trace.Span{
		Trace: at.ctx.id, ID: at.spanID, Parent: at.parent,
		Service: at.call.Service, Instance: at.target.ID,
		Start: at.dispatch, End: a.eng.Now(), Background: at.background,
	})
	at.fail()
}

// runGroups executes the children of a call honoring composition modes:
// consecutive Par children form a concurrent group; Seq children are
// barriers; Background children start when reached and are not awaited.
func (a *App) runGroups(ctx *reqCtx, parent trace.SpanID, caller string, children []topology.Child, onDone func(ok bool)) {
	// Partition into ordered groups.
	type group struct {
		calls []*topology.Call
	}
	var groups []group
	for i := 0; i < len(children); i++ {
		ch := children[i]
		switch ch.Mode {
		case topology.Background:
			a.exec(ctx, parent, caller, ch.Call, true, func(bool) {})
		case topology.Par:
			g := group{calls: []*topology.Call{ch.Call}}
			for i+1 < len(children) && children[i+1].Mode == topology.Par {
				i++
				g.calls = append(g.calls, children[i].Call)
			}
			groups = append(groups, g)
		case topology.Seq:
			groups = append(groups, group{calls: []*topology.Call{ch.Call}})
		}
	}
	ok := true
	var runGroup func(i int)
	runGroup = func(i int) {
		if i >= len(groups) {
			onDone(ok)
			return
		}
		remaining := len(groups[i].calls)
		for _, c := range groups[i].calls {
			a.exec(ctx, parent, caller, c, false, func(childOK bool) {
				if !childOK {
					ok = false
				}
				remaining--
				if remaining == 0 {
					runGroup(i + 1)
				}
			})
		}
	}
	runGroup(0)
}

// maybeFinish seals the trace once the root has completed AND every span
// (including background work) has been emitted, then reports the result.
func (ctx *reqCtx) maybeFinish() {
	if ctx.finished || !ctx.rootDone || ctx.outstanding != 0 {
		return
	}
	ctx.finished = true
	a := ctx.app
	a.Coord.Finish(ctx.id, ctx.dropped)
	res := Result{Trace: ctx.id, Type: ctx.typ, Latency: ctx.latency, Dropped: ctx.dropped}
	if ctx.dropped {
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
	if ctx.onDone != nil {
		ctx.onDone(res)
	}
}

// Calibrate measures the uncontended latency profile by running n requests
// of each endpoint at low rate on an idle cluster and sets
// SLO = P99 × margin, following the paper's setup where SLOs are defined
// relative to normal-operation latency. It returns the measured P99 (ms).
func (a *App) Calibrate(n int, margin float64) float64 {
	var lats []float64
	interval := 5 * sim.Millisecond
	t := sim.Time(0)
	for i := 0; i < n; i++ {
		for _, ep := range a.Spec.Endpoints {
			name := ep.Name
			a.eng.Schedule(t, func() {
				_ = a.Submit(name, func(r Result) {
					if !r.Dropped {
						lats = append(lats, r.Latency.Millis())
					}
				})
			})
			t += interval
		}
	}
	a.eng.RunUntil(a.eng.Now() + t + 30*sim.Second)
	if len(lats) == 0 {
		return 0
	}
	p99 := percentile(lats, 99)
	a.SLO = sim.FromMillis(p99 * margin)
	return p99
}

func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ { // insertion sort; calibration sets are small
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	if len(s) == 0 {
		return 0
	}
	idx := int(p / 100 * float64(len(s)-1))
	return s[idx]
}
