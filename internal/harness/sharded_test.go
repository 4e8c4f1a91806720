package harness

import (
	"fmt"
	"testing"

	"firm/internal/app"
	"firm/internal/sim"
	"firm/internal/topology"
	"firm/internal/workload"
)

// shardedFingerprint runs a generated topology under load and returns every
// request outcome in completion order plus the final counters. The whole
// point of the sharded path is that this string is identical for any
// (shards, workers) pair.
func shardedFingerprint(t *testing.T, shards, workers int) string {
	t.Helper()
	spec, err := topology.Generate(topology.Params{
		Services: 60, Endpoints: 4, MaxFanout: 3, Depth: 4,
	}, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSharded(ShardedOptions{Seed: 7, Spec: spec, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	b.App.SetResultHook(func(r app.Result) {
		out += fmt.Sprintf("%d %s %d %v\n", r.Trace, r.Type, r.Latency, r.Dropped)
	})
	b.Eng.SetWorkers(workers)
	b.AttachWorkload(workload.Constant{RPS: 80})
	b.Eng.RunFor(3 * sim.Second)
	// Request conservation: every submitted request is completed, dropped,
	// or still in flight at the horizon — never lost or double-counted.
	inFlight := b.App.InFlight()
	if b.Gen.Submitted != b.App.Completed+b.App.Dropped+uint64(inFlight) {
		t.Fatalf("shards=%d: submitted %d != completed %d + dropped %d + in flight %d",
			shards, b.Gen.Submitted, b.App.Completed, b.App.Dropped, inFlight)
	}
	if inFlight == 0 {
		t.Fatalf("shards=%d: no request in flight at the horizon; the check is vacuous", shards)
	}
	out += fmt.Sprintf("c=%d d=%d v=%d sub=%d nodes=%d",
		b.App.Completed, b.App.Dropped, b.App.Violations, b.Gen.Submitted, b.NumNodes)
	return out
}

func TestShardedBenchByteIdenticalAcrossShardCounts(t *testing.T) {
	base := shardedFingerprint(t, 1, 1)
	if base == "" {
		t.Fatal("empty fingerprint")
	}
	for _, cfg := range []struct{ shards, workers int }{
		{2, 1}, {2, 2}, {4, 1}, {4, 4}, {8, 3},
	} {
		got := shardedFingerprint(t, cfg.shards, cfg.workers)
		if got != base {
			t.Fatalf("shards=%d workers=%d diverged from shards=1:\n got: %.200s\nwant: %.200s",
				cfg.shards, cfg.workers, got, base)
		}
	}
}

func TestShardedBenchCompletesRequests(t *testing.T) {
	fp := shardedFingerprint(t, 2, 2)
	if len(fp) < 100 {
		t.Fatalf("suspiciously little activity: %q", fp)
	}
}
