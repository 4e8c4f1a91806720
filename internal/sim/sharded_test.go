package sim

import (
	"fmt"
	"testing"
)

// ringTrace runs a deterministic multi-actor model on S shards with W
// workers and returns each actor's observed event sequence, concatenated in
// actor order. Actors are assigned to shards round-robin; every actor
// interaction goes through Send with a key unique per (timestamp, actor),
// per the cross-shard determinism contract, so every actor's sequence must
// be identical for every (S, W). (Per-actor recording is deliberate: events
// on different shards inside one lookahead window are causally independent,
// so their cross-shard interleaving is unspecified — and with workers > 1 a
// shared trace slice would be a data race.)
func ringTrace(t *testing.T, actors, shards, workers int, rounds int) []string {
	t.Helper()
	const L = 50 // lookahead
	se := NewShardedEngine(42, shards, L)
	se.SetWorkers(workers)
	perActor := make([][]string, actors)
	// Per-actor RNG keyed by actor id — shard-count independent.
	jitter := make([]Time, actors)
	for a := 0; a < actors; a++ {
		r := Stream(42, fmt.Sprintf("actor/%d", a))
		jitter[a] = Time(r.Int63n(7)) // fixed per actor, derived off the model
	}
	home := func(a int) int { return a % shards }
	var hop func(a, round int) func()
	hop = func(a, round int) func() {
		return func() {
			sh := se.Shard(home(a))
			perActor[a] = append(perActor[a], fmt.Sprintf("%d@%d r%d", a, sh.Now(), round))
			if round >= rounds {
				return
			}
			next := (a + 1) % actors
			se.Send(home(a), home(next), L+jitter[a], Func(hop(next, round+1)), uint64(a), 0)
		}
	}
	for a := 0; a < actors; a++ {
		se.Shard(home(a)).Schedule(Time(1+a), hop(a, 0))
	}
	se.RunUntil(100_000)
	var trace []string
	for a := 0; a < actors; a++ {
		trace = append(trace, perActor[a]...)
	}
	return trace
}

func TestShardedDeterminismAcrossShardCounts(t *testing.T) {
	base := ringTrace(t, 12, 1, 1, 40)
	if len(base) == 0 {
		t.Fatal("empty trace")
	}
	for _, shards := range []int{2, 3, 4, 8, 12} {
		for _, workers := range []int{1, 2, 8} {
			got := ringTrace(t, 12, shards, workers, 40)
			if len(got) != len(base) {
				t.Fatalf("shards=%d workers=%d: %d events, want %d", shards, workers, len(got), len(base))
			}
			for i := range base {
				if got[i] != base[i] {
					t.Fatalf("shards=%d workers=%d: trace[%d] = %q, want %q", shards, workers, i, got[i], base[i])
				}
			}
		}
	}
}

// Mails with equal timestamps must deliver in key order regardless of which
// shard sent them or in which order the shards executed.
func TestShardedEqualTimestampMailOrder(t *testing.T) {
	const L = 100
	for _, workers := range []int{1, 4} {
		se := NewShardedEngine(7, 4, L)
		se.SetWorkers(workers)
		var order []uint64
		// Shards 1..3 each send a mail to shard 0 landing at the same instant;
		// keys deliberately run counter to shard index.
		keys := []uint64{30, 20, 10}
		for i := 1; i < 4; i++ {
			i := i
			se.Shard(i).Schedule(5, func() {
				k := keys[i-1]
				se.Send(i, 0, L, Func(func() { order = append(order, k) }), k, 0)
			})
		}
		se.RunUntil(1_000)
		if len(order) != 3 || order[0] != 10 || order[1] != 20 || order[2] != 30 {
			t.Fatalf("workers=%d: delivery order %v, want [10 20 30]", workers, order)
		}
	}
}

func TestShardedSameShardSendUsesSamePath(t *testing.T) {
	// from == to must be legal and land at the same global time as a true
	// cross-shard Send with identical parameters (S=1 runs the same model).
	const L = 10
	se1 := NewShardedEngine(1, 1, L)
	se2 := NewShardedEngine(1, 2, L)
	var at1, at2 Time
	se1.Shard(0).Schedule(3, func() {
		se1.Send(0, 0, L, Func(func() { at1 = se1.Shard(0).Now() }), 1, 0)
	})
	se2.Shard(0).Schedule(3, func() {
		se2.Send(0, 1, L, Func(func() { at2 = se2.Shard(1).Now() }), 1, 0)
	})
	se1.RunUntil(100)
	se2.RunUntil(100)
	if at1 == 0 || at1 != at2 {
		t.Fatalf("same-shard send at %d, cross-shard at %d; want equal and nonzero", at1, at2)
	}
}

func TestShardedSendValidation(t *testing.T) {
	se := NewShardedEngine(1, 2, 100)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: want panic", name)
			}
		}()
		fn()
	}
	mustPanic("short delay", func() { se.Send(0, 1, 99, Func(func() {}), 0, 0) })
	mustPanic("nil handler", func() { se.Send(0, 1, 100, nil, 0, 0) })
	mustPanic("bad from", func() { se.Send(-1, 1, 100, Func(func() {}), 0, 0) })
	mustPanic("bad to", func() { se.Send(0, 2, 100, Func(func() {}), 0, 0) })
	mustPanic("zero shards", func() { NewShardedEngine(1, 0, 100) })
	mustPanic("zero lookahead", func() { NewShardedEngine(1, 1, 0) })
}

func TestShardedClockAndPending(t *testing.T) {
	se := NewShardedEngine(1, 2, 10)
	ran := false
	se.Shard(1).Schedule(25, func() {
		ran = true
		se.Send(1, 0, 10, Func(func() {}), 0, 0)
	})
	if se.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", se.Pending())
	}
	se.RunUntil(30)
	if !ran {
		t.Fatal("event did not run")
	}
	if se.Now() != 30 {
		t.Fatalf("Now = %v, want 30", se.Now())
	}
	for i := 0; i < 2; i++ {
		if got := se.Shard(i).Now(); got != 30 {
			t.Fatalf("shard %d clock = %v, want 30 (lockstep)", i, got)
		}
	}
	if se.Pending() != 1 { // the mail, due at 35, is still undelivered
		t.Fatalf("Pending = %d, want 1 undelivered mail", se.Pending())
	}
	se.RunFor(10)
	if se.Pending() != 0 || se.Now() != 40 {
		t.Fatalf("Pending = %d, Now = %v after drain", se.Pending(), se.Now())
	}
}

// A run must execute events scheduled exactly at the boundary t, matching
// Engine.RunUntil's inclusive contract.
func TestShardedRunUntilInclusive(t *testing.T) {
	se := NewShardedEngine(1, 2, 10)
	ran := false
	se.Shard(1).Schedule(50, func() { ran = true })
	se.RunUntil(50)
	if !ran {
		t.Fatal("boundary event did not run")
	}
}

func TestShardedStepsCount(t *testing.T) {
	se := NewShardedEngine(1, 4, 10)
	for i := 0; i < 4; i++ {
		se.Shard(i).Schedule(Time(i+1), func() {})
	}
	se.RunUntil(100)
	if se.Steps() != 4 {
		t.Fatalf("Steps = %d, want 4", se.Steps())
	}
}

func TestShardedWorkerClamping(t *testing.T) {
	se := NewShardedEngine(1, 2, 10)
	se.SetWorkers(64)
	if se.Workers() != 2 {
		t.Fatalf("Workers = %d, want clamp to 2", se.Workers())
	}
	se.SetWorkers(0)
	if se.Workers() != 1 {
		t.Fatalf("Workers = %d, want clamp to 1", se.Workers())
	}
}
