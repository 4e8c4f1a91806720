package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// This file implements the sharded event engine (ROADMAP item 1): N Engine
// shards, each owning a partition of the model, advanced in lockstep behind
// a shared clock. It is a conservative parallel discrete-event simulator
// with lookahead: the shards' partitions may only interact through Send,
// whose delay is bounded below by the lookahead, so all events inside one
// lookahead window are causally independent across shards and the shards
// can execute a window concurrently without ever seeing each other's
// mid-window state.
//
// The determinism contract mirrors -parallel/-rollout: for a fixed shard
// count, output is byte-identical at any worker count (each shard's window
// is a sequential run over private state; workers only choose which OS
// thread executes it). Byte-identical output across *shard counts* is a
// model-level contract on top: it holds when (a) every cross-component
// interaction goes through Send — even when source and destination happen
// to share a shard — with a key that is unique among all mails sharing a
// timestamp, (b) component placement onto shards is a pure function of the
// model (never of shard-local state), and (c) no component draws from a
// shard engine's Rand. internal/app's App and internal/harness's
// sharded placement are built to those rules.

// mail is one cross-shard message: h.Handle(key, arg) runs on shard to at
// absolute time at. Mails becoming due in the same delivery round are
// scheduled in (at, key) order; key uniqueness per timestamp is what makes
// that order — and therefore the destination shard's event sequence —
// independent of the shard count. seq (assigned at collection, in
// deterministic shard order) breaks residual ties so a fixed configuration
// is still reproducible even if a model violates the uniqueness rule.
type mail struct {
	at  Time
	key uint64
	arg uint64
	seq uint64
	h   Handler
	to  int32
}

// mailHeap is an inlined binary min-heap of mails ordered by (at, key, seq).
type mailHeap []mail

func (h mailHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].seq < h[j].seq
}

//firmvet:noalloc
func (h *mailHeap) push(m mail) {
	*h = append(*h, m)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

//firmvet:noalloc
func (h *mailHeap) pop() mail {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n].h = nil // do not pin the handler through the free tail
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s.less(l, min) {
			min = l
		}
		if r < n && s.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// ShardedEngine advances N shards in lockstep windows of one lookahead
// each: at every round it picks the globally earliest pending timestamp T,
// delivers all mails due before T+lookahead into their destination shards'
// heaps (in (at, key) order, so delivery is reproducible), runs every shard
// with work in [T, T+lookahead) — concurrently when workers > 1 — and
// collects the mails those windows sent. Events therefore fire in global
// (timestamp, delivery order) order even though shards execute in parallel.
type ShardedEngine struct {
	shards    []*Engine
	lookahead Time
	workers   int
	now       Time

	inbox   mailHeap
	outbox  [][]mail
	mailSeq uint64

	// Window-execution scratch. active lists the shard indices with work in
	// the current window; helpers claim indices through next. start/wg are
	// the per-round rendezvous for the helper goroutines RunUntil spawns.
	active  []int
	until   Time
	next    atomic.Int64
	helpers int
	start   chan struct{}
	wg      sync.WaitGroup
}

// NewShardedEngine builds n shards. Each shard's private random stream is
// derived from (seed, "shard/<i>") — models that must be byte-identical
// across shard counts key their own streams off model-stable labels instead
// (see Stream), but shard-confined uses stay reproducible either way.
// lookahead is the minimum cross-shard delay Send will accept; it must be
// positive, and the larger it is the fewer barrier rounds a run needs.
func NewShardedEngine(seed int64, n int, lookahead Time) *ShardedEngine {
	if n < 1 {
		panic("sim: NewShardedEngine needs at least one shard")
	}
	if lookahead < 1 {
		panic("sim: NewShardedEngine needs a positive lookahead")
	}
	se := &ShardedEngine{
		shards:    make([]*Engine, n),
		lookahead: lookahead,
		workers:   1,
		outbox:    make([][]mail, n),
	}
	for i := range se.shards {
		se.shards[i] = NewEngine(DeriveSeed(seed, fmt.Sprintf("shard/%d", i)))
	}
	return se
}

// Shards returns the shard count.
func (se *ShardedEngine) Shards() int { return len(se.shards) }

// Shard returns shard i's engine. Scheduling directly on it is setup-time
// API (and window-time API for the components the shard owns); cross-shard
// effects must go through Send.
func (se *ShardedEngine) Shard(i int) *Engine { return se.shards[i] }

// Lookahead returns the minimum cross-shard delay.
func (se *ShardedEngine) Lookahead() Time { return se.lookahead }

// Now returns the shared clock: the time the last Run call advanced to.
func (se *ShardedEngine) Now() Time { return se.now }

// SetWorkers sets how many OS threads execute each window's shards
// (clamped to [1, shards]). Worker count never changes results — only
// which thread runs a shard. Must not be called during a Run.
func (se *ShardedEngine) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	if n > len(se.shards) {
		n = len(se.shards)
	}
	se.workers = n
}

// Workers returns the window-execution worker count.
func (se *ShardedEngine) Workers() int { return se.workers }

// Pending reports scheduled events plus undelivered mails across all shards.
func (se *ShardedEngine) Pending() int {
	n := len(se.inbox)
	for _, sh := range se.shards {
		n += sh.Pending()
	}
	for _, ob := range se.outbox {
		n += len(ob)
	}
	return n
}

// Steps reports how many events have executed across all shards.
func (se *ShardedEngine) Steps() uint64 {
	var n uint64
	for _, sh := range se.shards {
		n += sh.Steps()
	}
	return n
}

// Send schedules h.Handle(key, arg) on shard to at the sender's now +
// delay. from must be the shard the caller is executing on (shard 0 during
// setup); delay must be at least the lookahead — that bound is exactly what
// lets windows run concurrently, so a shorter delay is a model error and
// panics. key orders mails that become deliverable in the same round (see
// mail); arg is a free payload word that never affects ordering. h runs on
// the destination shard's goroutine, so it must touch only that shard's
// state. Wrap a closure in Func to send it.
//
//firmvet:noalloc
func (se *ShardedEngine) Send(from, to int, delay Time, h Handler, key, arg uint64) {
	if h == nil {
		panic("sim: Send with nil handler")
	}
	if from < 0 || from >= len(se.shards) || to < 0 || to >= len(se.shards) {
		panic(fmt.Sprintf("sim: Send %d→%d outside [0,%d)", from, to, len(se.shards)))
	}
	if delay < se.lookahead {
		panic(fmt.Sprintf("sim: Send delay %v below lookahead %v", delay, se.lookahead))
	}
	se.outbox[from] = append(se.outbox[from], mail{
		at: se.shards[from].Now() + delay, key: key, arg: arg, to: int32(to), h: h,
	})
}

// collect drains every shard's outbox into the inbox heap. Shard-index
// order (then append order) assigns the tie-break seq deterministically.
//
//firmvet:noalloc
func (se *ShardedEngine) collect() {
	for i, ob := range se.outbox {
		for j := range ob {
			se.mailSeq++
			m := ob[j]
			m.seq = se.mailSeq
			se.inbox.push(m)
			ob[j].h = nil // keep the reused buffer from pinning handlers
		}
		se.outbox[i] = ob[:0]
	}
}

// deliver schedules every mail due before until into its destination
// shard. Mails pop in (at, key) order, so equal-timestamp mails to one
// destination get their seqs — and therefore their execution order — from
// their keys, not from which shard sent them.
//
//firmvet:noalloc
func (se *ShardedEngine) deliver(until Time) {
	for len(se.inbox) > 0 && se.inbox[0].at < until {
		m := se.inbox.pop()
		se.shards[m.to].ScheduleEvent(m.at, m.h, m.key, m.arg)
	}
}

// nextTime returns the earliest pending timestamp across all shard heaps
// and undelivered mails; ok is false when the whole system is idle.
func (se *ShardedEngine) nextTime() (t Time, ok bool) {
	for _, sh := range se.shards {
		if len(sh.events) > 0 && (!ok || sh.events[0].at < t) {
			t, ok = sh.events[0].at, true
		}
	}
	if len(se.inbox) > 0 && (!ok || se.inbox[0].at < t) {
		t, ok = se.inbox[0].at, true
	}
	return t, ok
}

// RunUntil advances the shared clock to t, executing all events and
// delivering all mails with timestamps <= t.
func (se *ShardedEngine) RunUntil(t Time) {
	se.collect() // setup-time sends
	se.helpers = se.workers - 1
	if se.helpers > len(se.shards)-1 {
		se.helpers = len(se.shards) - 1
	}
	if se.helpers > 0 {
		se.start = make(chan struct{})
		for k := 0; k < se.helpers; k++ {
			// The channel is passed in, not read from the field: the field is
			// nilled at the end of this call, possibly before a late-scheduled
			// helper goroutine gets its first timeslice.
			go se.helper(se.start)
		}
	}
	for {
		T, ok := se.nextTime()
		if !ok || T > t {
			break
		}
		// The window is [T, until): until-1 is the last included instant.
		until := T + se.lookahead
		if until > t+1 || until < T { // clamp to the run end; < T guards overflow
			until = t + 1
		}
		se.deliver(until)
		se.runWindow(until - 1)
		se.collect()
	}
	if se.start != nil {
		close(se.start)
		se.start = nil
	}
	for _, sh := range se.shards {
		if sh.now < t {
			sh.now = t
		}
	}
	se.now = t
}

// RunFor advances the shared clock by d.
func (se *ShardedEngine) RunFor(d Time) { se.RunUntil(se.now + d) }

// runWindow executes every shard with work at or before until (inclusive).
// Helpers claim shard indices through an atomic cursor; each shard is
// claimed exactly once, so shard state is only ever touched by one
// goroutine per window and the claim order cannot affect results.
//
//firmvet:noalloc
func (se *ShardedEngine) runWindow(until Time) {
	active := se.active[:0]
	for i, sh := range se.shards {
		if len(sh.events) > 0 && sh.events[0].at <= until {
			active = append(active, i)
		}
	}
	se.active = active
	h := len(active) - 1
	if h > se.helpers {
		h = se.helpers
	}
	if h <= 0 {
		for _, i := range active {
			se.shards[i].RunUntil(until)
		}
		return
	}
	se.until = until
	se.next.Store(0)
	se.wg.Add(h)
	for k := 0; k < h; k++ {
		se.start <- struct{}{}
	}
	se.chew()
	se.wg.Wait()
}

func (se *ShardedEngine) helper(start <-chan struct{}) {
	for range start {
		se.chew()
		se.wg.Done()
	}
}

//firmvet:noalloc
func (se *ShardedEngine) chew() {
	for {
		i := int(se.next.Add(1)) - 1
		if i >= len(se.active) {
			return
		}
		se.shards[se.active[i]].RunUntil(se.until)
	}
}
