// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine is the substrate on which the FIRM reproduction runs: cluster
// nodes, containers, workload generators, the anomaly injector, and the FIRM
// control loop are all scheduled as events on a single logical clock. Using
// a single-threaded event heap (rather than goroutines) keeps every
// experiment bit-for-bit reproducible under a fixed seed.
//
// An event is a record, not a closure: a Handler plus two uint64 payload
// words, kept in a reused slot table while a pointer-free (time, seq,
// slot) key sits in the heap. Step calls Handle(a, b). The words
// belong to the handler; hot paths keep one long-lived handler per
// component and pass an index into the component's pooled state (and a
// kind tag) in the words, so scheduling allocates nothing. A sharded
// engine's mail carries the same pair, its key and one argument word.
// Schedule and ScheduleAt adapt plain closures through Func for code off
// the hot path.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is simulated time measured in microseconds since the start of the
// simulation. Microsecond resolution matches the span timestamps produced by
// distributed tracing systems such as Jaeger, which FIRM's tracing module is
// modelled on.
type Time int64

// Common durations expressed in simulated microseconds.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis converts t to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Duration converts t to a time.Duration (1 sim µs = 1 real µs).
func (t Time) Duration() time.Duration { return time.Duration(t) * time.Microsecond }

// String renders the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// FromSeconds converts floating-point seconds to a Time. Fractional
// microseconds truncate toward zero (Go float64→int64 conversion): the
// engine's clock has microsecond resolution and sub-µs residue is model
// noise, not information. FromSeconds(1e-7) is therefore 0, not 1 — callers
// that need "at least one tick" must clamp themselves.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// FromMillis converts floating-point milliseconds to a Time, truncating
// fractional microseconds toward zero like FromSeconds.
func FromMillis(ms float64) Time { return Time(ms * float64(Millisecond)) }

// Handler is the target of an event or a mail. Step and the sharded
// engine's delivery call Handle with the record's two payload words, whose
// meaning belongs to the handler: hot-path models point a long-lived
// handler at pooled state and pass the state's index (and a kind tag) in
// the words, so scheduling needs no per-event closure. A mail's words are
// its key and one argument word (see ShardedEngine.Send).
type Handler interface {
	Handle(a, b uint64)
}

// Func adapts a plain callback to Handler; its payload words are unused. A
// func value is pointer-shaped, so converting one to a Handler stores it in
// the interface directly and does not allocate. Schedule and ScheduleAt
// use it, so cold call sites keep passing closures.
type Func func()

// Handle calls f.
func (f Func) Handle(_, _ uint64) { f() }

// event is one scheduled handler invocation, kept in the engine's record
// table while it is pending.
type event struct {
	h    Handler
	a, b uint64
}

// eventKey orders pending events. Events with equal timestamps fire in
// scheduling order (FIFO), which the seq field enforces. (at, seq) is a
// strict total order — seq is unique per engine — so the pop sequence is
// the same for any heap arrangement. slot indexes the event's record.
type eventKey struct {
	at   Time
	seq  uint64
	slot uint32
}

func (x *eventKey) before(y *eventKey) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

// eventHeap is an inlined binary min-heap of keys ordered by (at, seq).
// Keys hold no pointers, so sifting them costs no write barriers and the
// collector never scans the heap; sifts move a hole instead of swapping.
type eventHeap []eventKey

//firmvet:noalloc
func (h *eventHeap) push(k eventKey) {
	*h = append(*h, k)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = k
}

//firmvet:noalloc
func (h *eventHeap) pop() eventKey {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		min := 2*i + 1
		if min >= n {
			break
		}
		if r := min + 1; r < n && s[r].before(&s[min]) {
			min = r
		}
		if !s[min].before(&last) {
			break
		}
		s[i] = s[min]
		i = min
	}
	s[i] = last
	return top
}

// Engine is a discrete-event simulator with a deterministic RNG.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
	// recs holds pending events' records by slot; free lists the slots of
	// executed ones for reuse, so at steady state scheduling allocates
	// nothing.
	recs   []event
	free   []uint32
	rng    *rand.Rand
	nSteps uint64
}

// NewEngine returns an engine whose random stream is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random stream. All model-level
// randomness (service-time noise, workload interarrival, anomaly selection)
// must come from this stream or from a stream derived from it so that runs
// are reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Steps reports how many events have been executed so far.
func (e *Engine) Steps() uint64 { return e.nSteps }

// Pending reports how many events are currently scheduled.
func (e *Engine) Pending() int { return len(e.events) }

// Schedule runs fn after delay. A negative delay is treated as zero (fire as
// soon as possible, after already-queued events at the current instant).
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at the absolute simulated time at. Times in the past
// are clamped to "now".
//
//firmvet:noalloc
func (e *Engine) ScheduleAt(at Time, fn func()) {
	if fn == nil {
		panic("sim: ScheduleAt with nil callback")
	}
	e.ScheduleEvent(at, Func(fn), 0, 0)
}

// ScheduleEvent calls h.Handle(a, b) at the absolute simulated time at.
// Times in the past are clamped to "now". It is the engine's one
// scheduling primitive; Schedule and ScheduleAt adapt closures to it.
//
//firmvet:noalloc
func (e *Engine) ScheduleEvent(at Time, h Handler, a, b uint64) {
	if h == nil {
		panic("sim: ScheduleEvent with nil handler")
	}
	if at < e.now {
		at = e.now
	}
	e.seq++
	var slot uint32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		slot = uint32(len(e.recs))
		e.recs = append(e.recs, event{})
	}
	e.recs[slot] = event{h: h, a: a, b: b}
	e.events.push(eventKey{at: at, seq: e.seq, slot: slot})
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
//
//firmvet:noalloc
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	k := e.events.pop()
	ev := e.recs[k.slot]
	e.recs[k.slot] = event{} // do not pin the handler
	e.free = append(e.free, k.slot)
	e.now = k.at
	e.nSteps++
	ev.h.Handle(ev.a, ev.b)
	return true
}

// RunUntil executes events until the clock reaches t (inclusive of events at
// exactly t) or the event queue drains. The clock is left at t if it was
// reached, otherwise at the last event time.
func (e *Engine) RunUntil(t Time) {
	for len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor advances the simulation by d.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// Drain runs until no events remain or maxEvents have executed, returning
// the number executed. It guards against runaway self-rescheduling loops.
func (e *Engine) Drain(maxEvents uint64) uint64 {
	var n uint64
	for n < maxEvents && e.Step() {
		n++
	}
	return n
}

// Ticker repeatedly invokes fn every period until Stop is called. The first
// invocation happens one period after Start. Stop/Start cycles are
// supported: each Start opens a new tick generation, so a restarted ticker
// resumes ticking and a tick event left over from before the Stop can never
// fire again (its payload word carries the old generation).
type Ticker struct {
	eng     *Engine
	period  Time
	fn      func()
	stopped bool
	gen     uint64
}

// NewTicker creates (but does not start) a ticker.
func NewTicker(eng *Engine, period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	return &Ticker{eng: eng, period: period, fn: fn}
}

// Start schedules the ticker's first tick. Starting an already-running
// ticker retires its pending tick chain and begins a fresh one (a restart,
// not a second chain).
func (t *Ticker) Start() {
	t.stopped = false
	t.gen++
	t.schedule(t.gen)
}

// Stop prevents any future ticks. Safe to call multiple times; bumping the
// generation invalidates the pending tick immediately instead of letting
// it linger in the heap for up to one period.
func (t *Ticker) Stop() {
	t.stopped = true
	t.gen++
}

// Handle implements Handler: it is the tick event of generation gen, which
// fires fn and schedules the chain's next tick unless the generation has
// been retired.
func (t *Ticker) Handle(gen, _ uint64) {
	if t.stopped || gen != t.gen {
		return
	}
	t.fn()
	t.schedule(gen)
}

func (t *Ticker) schedule(gen uint64) {
	t.eng.ScheduleEvent(t.eng.now+t.period, t, gen, 0)
}
