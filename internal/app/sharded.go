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

// ShardedApp executes a topology.Spec across the shards of a
// sim.ShardedEngine: every service's replica set lives wholly on one shard
// (with its own cluster of nodes), and every inter-service call — including
// calls between services that share a shard — travels as a ShardedEngine
// mail. Routing always paying the mail path is what makes the execution
// identical at any shard count: a one-shard run performs exactly the same
// sends with exactly the same keys as an eight-shard run, so the event
// sequence (and therefore every latency, drop, and counter) is
// byte-identical.
//
// Differences from App, by necessity of partition confinement: replica
// selection happens on the callee's shard (the caller cannot touch another
// shard's round-robin cursor), a no-ready-replica shed is observed by the
// caller one round-trip later rather than instantly, and spans are not
// emitted (the trace coordinator is a single-engine structure; the 10k
// sweep consumes latencies through the result hook instead).
//
// The request path allocates nothing at steady state. Each shard owns a
// pool of call frames (one per call its services are serving) and is the
// sim.Handler of every event and mail addressed to it; the payload words
// name the frame. The home shard owns a pool of request records.
type ShardedApp struct {
	Spec *topology.Spec

	se     *sim.ShardedEngine
	home   int
	delay  sim.Time   // BaseRPCDelay; also the engine's lookahead
	calls  []callInfo // by call index; read-only after DeploySharded
	roots  []uint32   // root call index per endpoint, in Spec.Endpoints order
	shards []*appShard

	// SLO is the end-to-end latency objective (spec's by default).
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
}

// callInfo is one workflow call resolved at deploy time, so a hop costs no
// map lookup.
type callInfo struct {
	shard   int
	rs      *cluster.ReplicaSet
	compute sim.Time
	demand  cluster.Vector
	// bg lists the Background children, all fired when the call's own work
	// is done; groups lists the awaited children in order, one group per
	// run of consecutive Par children or per Seq child.
	bg     []uint32
	groups [][]uint32
}

// Mail-key layout: (trace << 22) | (call index << 2) | direction. Each
// (trace, call, direction) triple is sent at most once per request, so keys
// are unique among mails sharing a timestamp — the ShardedEngine contract.
// The unused direction 3 tags the callee's local arrival event, whose key
// word is never a mail key.
const (
	dirCall    = 0
	dirResult  = 1
	dirDrained = 2
	evArrive   = 3

	maxCallIdx = 1 << 20
)

func mailKey(tr uint64, idx uint32, dir uint64) uint64 {
	return tr<<22 | uint64(idx)<<2 | dir
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

	maxShards = 1 << 16
)

func parentWord(shard int, index uint32) uint64 { return uint64(shard)<<32 | uint64(index) }

// DeploySharded builds a sharded application over already-deployed per-shard
// clusters. assign maps every service to its shard; clusters[i] is shard i's
// cluster and must already hold replica sets for the services assigned to
// it (the harness deploys them with DeployServiceOn to realise a globally
// computed placement). home is the shard that owns request admission and
// result accounting; the workload generator must run on its engine.
func DeploySharded(se *sim.ShardedEngine, spec *topology.Spec, home int, assign map[string]int, clusters []*cluster.Cluster) (*ShardedApp, error) {
	if len(clusters) != se.Shards() {
		return nil, fmt.Errorf("app %s: %d clusters for %d shards", spec.Name, len(clusters), se.Shards())
	}
	if se.Shards() > maxShards {
		return nil, fmt.Errorf("app %s: %d shards exceed the %d mail-argument limit", spec.Name, se.Shards(), maxShards)
	}
	if home < 0 || home >= se.Shards() {
		return nil, fmt.Errorf("app %s: home shard %d out of range", spec.Name, home)
	}
	if spec.BaseRPCDelay < se.Lookahead() {
		return nil, fmt.Errorf("app %s: BaseRPCDelay %v below engine lookahead %v", spec.Name, spec.BaseRPCDelay, se.Lookahead())
	}
	a := &ShardedApp{
		Spec:   spec,
		se:     se,
		home:   home,
		delay:  spec.BaseRPCDelay,
		SLO:    spec.SLO,
		shards: make([]*appShard, se.Shards()),
	}
	for i := range a.shards {
		a.shards[i] = &appShard{app: a, id: i}
	}
	names := make([]string, 0, len(spec.Services))
	for name := range spec.Services {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
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
		a.roots[i] = callIdx[spec.Endpoints[i].Root]
		topology.Walk(spec.Endpoints[i].Root, func(c *topology.Call) {
			svc, ok := spec.Services[c.Service]
			if !ok {
				err = fmt.Errorf("app %s: call to unknown service %s", spec.Name, c.Service)
				return
			}
			sh := assign[c.Service]
			ci := &a.calls[callIdx[c]]
			*ci = callInfo{shard: sh, rs: clusters[sh].ReplicaSet(c.Service), compute: c.Compute, demand: svc.Demand}
			kids := c.Children
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

// Home returns the admission shard's index.
func (a *ShardedApp) Home() int { return a.home }

// Engine returns the home shard's engine (the workload.Target clock).
func (a *ShardedApp) Engine() *sim.Engine { return a.se.Shard(a.home) }

// SetResultHook registers an observer invoked for every request outcome.
func (a *ShardedApp) SetResultHook(fn func(Result)) { a.onResult = fn }

// InFlight returns the number of submitted requests that have not yet
// finished: every request is submitted, then counted exactly once as
// Completed or Dropped, so Completed + Dropped + InFlight() always equals
// the number submitted. Like the counters, it belongs to the home shard.
func (a *ShardedApp) InFlight() int { return len(a.reqs) - len(a.reqFree) }

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
func (a *ShardedApp) Submit(endpoint string, onDone func(Result)) error {
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
	a.nextTrace++
	var r uint32
	if n := len(a.reqFree); n > 0 {
		r = a.reqFree[n-1]
		a.reqFree = a.reqFree[:n-1]
	} else {
		r = uint32(len(a.reqs))
		a.reqs = append(a.reqs, request{})
	}
	a.reqs[r] = request{tr: a.nextTrace, typ: a.Spec.Endpoints[ep].Name, start: a.Engine().Now(), onDone: onDone}
	a.call(a.home, a.nextTrace, a.roots[ep], parentRequest|parentWord(a.home, r))
	return nil
}

// SubmitMix issues one request drawn from the endpoint mix using r,
// returning the chosen endpoint name.
func (a *ShardedApp) SubmitMix(r *rand.Rand, onDone func(Result)) (string, error) {
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
// background branches included — has drained. The record is released
// before the hooks run, so a hook may submit the next request.
func (a *ShardedApp) finish(r uint32) {
	st := a.reqs[r]
	a.reqs[r] = request{}
	a.reqFree = append(a.reqFree, r)
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

// call dispatches call idx of trace tr from the shard the caller is
// executing on. parent names the caller (see parentWord): the callee sends
// the call's result to it when the awaited subtree is done, and its drain
// when the entire subtree, background branches included, has finished.
// When both happen at the same instant they travel as one result mail
// flagged resultDrained, applied result first.
//
//firmvet:noalloc
func (a *ShardedApp) call(from int, tr uint64, idx uint32, parent uint64) {
	to := a.calls[idx].shard
	a.se.Send(from, to, a.delay, a.shards[to], mailKey(tr, idx, dirCall), parent)
}

// reply sends a result or drained mail from shard from back to the caller
// that parent names.
//
//firmvet:noalloc
func (a *ShardedApp) reply(from int, parent uint64, delay sim.Time, key, flags uint64) {
	to := int(parent >> 32 & (maxShards - 1))
	a.se.Send(from, to, delay, a.shards[to], key, parent|flags)
}

// appShard is one shard's part of a ShardedApp: the sim.Handler of every
// event and mail addressed to the shard, the cluster.Receiver of its
// containers' work, and the owner of the frames of the calls its services
// serve. Only the shard's own goroutine touches it.
type appShard struct {
	app    *ShardedApp
	id     int
	frames []frame
	free   []uint32 // released frame indices, reused LIFO
}

// frame is one call being served: what the callee needs from the moment
// the call mail arrives until its drained mail leaves.
type frame struct {
	tr         uint64
	parent     uint64 // the call mail's argument word
	target     *cluster.Container
	hop        sim.Time // response delay: base RPC delay plus the instance's
	idx        uint32
	group      int32 // awaited child group in flight
	remaining  int32 // calls of that group not yet answered
	drainLeft  int32 // child subtrees, background included, not yet drained
	ok         bool
	resultSent bool
}

// Handle implements sim.Handler: key is a mail key (or, for evArrive, a key
// word tagged with it) and arg its argument word.
//
//firmvet:noalloc
func (s *appShard) Handle(key, arg uint64) {
	switch key & 3 {
	case dirCall:
		s.serve(key, arg)
	case dirResult:
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
	}
}

// serve runs on the callee's shard: pick a replica, pay the instance network
// delay, then occupy a worker for the compute (WorkDone continues).
//
//firmvet:noalloc
func (s *appShard) serve(key, parent uint64) {
	a := s.app
	tr, idx := key>>22, uint32(key>>2)&(maxCallIdx-1)
	target := a.calls[idx].rs.Pick()
	if target == nil { // no ready replica: shed at routing
		a.reply(s.id, parent, a.delay, mailKey(tr, idx, dirResult), resultDrained)
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
	nd := target.NetDelay()
	s.frames[f] = frame{tr: tr, parent: parent, target: target, hop: a.delay + nd, idx: idx, ok: true}
	eng := a.se.Shard(s.id)
	eng.ScheduleEvent(eng.Now()+nd, s, mailKey(tr, idx, evArrive), uint64(f))
}

// WorkDropped implements cluster.Receiver: the replica shed the call, which
// fails back to the caller.
//
//firmvet:noalloc
func (s *appShard) WorkDropped(token uint64) {
	fr := &s.frames[token]
	s.app.reply(s.id, fr.parent, fr.hop, mailKey(fr.tr, fr.idx, dirResult), resultDrained)
	s.release(uint32(token))
}

// WorkDone implements cluster.Receiver: the call's own compute is done, so
// run its children with App's composition semantics (consecutive Par
// children concurrent, Seq barriers, Background fired and not awaited),
// then reply.
//
//firmvet:noalloc
func (s *appShard) WorkDone(token uint64, _, _ sim.Time) {
	f := uint32(token)
	fr := &s.frames[f]
	for _, c := range s.app.calls[fr.idx].bg {
		fr.drainLeft++
		s.app.call(s.id, fr.tr, c, parentBgChild|parentWord(s.id, f))
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
		s.app.call(s.id, fr.tr, c, parentWord(s.id, f))
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
	var flags uint64
	if fr.ok {
		flags = resultOK
	}
	if fr.drainLeft == 0 {
		s.app.reply(s.id, fr.parent, fr.hop, mailKey(fr.tr, fr.idx, dirResult), flags|resultDrained)
		s.release(f)
		return
	}
	s.app.reply(s.id, fr.parent, fr.hop, mailKey(fr.tr, fr.idx, dirResult), flags)
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
		s.app.reply(s.id, fr.parent, fr.hop, mailKey(fr.tr, fr.idx, dirDrained), 0)
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
