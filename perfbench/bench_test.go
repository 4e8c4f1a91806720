package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"firm/internal/sim"
)

func TestDiffCatchesPerturbedFingerprint(t *testing.T) {
	var a fingerprint
	a.addFloat("app.completed", 1200)
	a.addFloat("app.p99_ms", 12.5)
	a.add("experiments.rewards_one_for_all", "1.5,2.25")
	if d := Diff(a, append(fingerprint(nil), a...)); d != "" {
		t.Fatalf("equal fingerprints differ: %s", d)
	}
	for _, tc := range []struct {
		name string
		edit func(f fingerprint) fingerprint
	}{
		{"value", func(f fingerprint) fingerprint { f[1].value = "12.500000000000002"; return f }},
		{"name", func(f fingerprint) fingerprint { f[0].name = "app.dropped"; return f }},
		{"missing", func(f fingerprint) fingerprint { return f[:2] }},
		{"extra", func(f fingerprint) fingerprint { return append(f, fpItem{"sim.events", "1"}) }},
	} {
		b := tc.edit(append(fingerprint(nil), a...))
		if d := Diff(a, b); d == "" {
			t.Errorf("%s: perturbed fingerprint not caught", tc.name)
		}
		if a.Hash() == b.Hash() {
			t.Errorf("%s: perturbed fingerprint has the same hash", tc.name)
		}
	}
}

// A workload whose output changes between runs must fail the benchmark.
func TestBenchCountsNondeterminismAsFailure(t *testing.T) {
	calls := 0
	flaky := workloadDef{name: "flaky", episodes: 2, run: func(it *iter) error {
		calls++
		it.startRun()
		it.count("app.completed", 10)
		if calls == 3 { // second batch, first episode
			it.count("sim.events", 7)
		} else {
			it.count("sim.events", 6)
		}
		return nil
	}}
	res := bench(config{workload: flaky, seed: 1}, io.Discard, io.Discard)
	if res.Correct || res.Failed != 1 || res.Attempted != 3 {
		t.Fatalf("got correct=%v attempted=%d failed=%d, want one failed run", res.Correct, res.Attempted, res.Failed)
	}
}

func TestBenchCountsPanicAsFailure(t *testing.T) {
	bad := workloadDef{name: "bad", episodes: 1, run: func(it *iter) error {
		it.startRun()
		panic("boom")
	}}
	res := bench(config{workload: bad, seed: 1}, io.Discard, io.Discard)
	if res.Correct || res.Failed != res.Attempted || res.Attempted != 3 {
		t.Fatalf("got correct=%v attempted=%d failed=%d, want every run failed", res.Correct, res.Attempted, res.Failed)
	}
}

func TestConserveRejectsExtraRequests(t *testing.T) {
	if err := conserve(&iter{}, 10, 6, 3); err != nil {
		t.Fatalf("conserving counts rejected: %v", err)
	}
	it := &iter{}
	if err := conserve(it, 10, 8, 3); err == nil {
		t.Fatal("completed + dropped > submitted accepted")
	}
}

func TestSelfTimesNestedSpans(t *testing.T) {
	spans := []Span{
		{Name: "core.tick", Parent: -1, Start: 0, End: 100},
		{Name: "rl.train", Parent: 0, Start: 10, End: 40},
		{Name: "rl.step", Parent: 1, Start: 20, End: 30},
		{Name: "rl.train", Parent: 0, Start: 35, End: 60},      // overlaps its sibling
		{Name: "tracedb.read", Parent: 0, Start: 90, End: 120}, // runs past its parent
		{Name: "sim.run", Parent: -1, Start: 120, End: 150},
	}
	want := []int64{
		100 - (60 - 10) - (100 - 90),
		30 - 10,
		10,
		25,
		30,
		30,
	}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	layers := LayerSelf(spans, 0)
	for layer, ns := range map[string]int64{"core": 40, "rl": 55, "tracedb": 30, "sim": 30} {
		if g := layers[layer] * 1e9; g < float64(ns)-1e-6 || g > float64(ns)+1e-6 {
			t.Errorf("layer %s: self %.0f ns, want %d", layer, g, ns)
		}
	}
}

func TestRecorderNestsAndNilRecordsNothing(t *testing.T) {
	var none *Recorder
	none.End(none.Begin("sim.run")) // must not panic

	r := NewRecorder()
	outer := r.Begin("core.tick")
	inner := r.Begin("rl.train")
	r.End(inner)
	r.End(outer)
	after := r.Begin("sim.run")
	r.End(after)
	if r.spans[inner].Parent != outer || r.spans[outer].Parent != -1 || r.spans[after].Parent != -1 {
		t.Fatalf("parents wrong: %+v", r.spans)
	}
	for _, s := range r.spans {
		if s.End < s.Start {
			t.Fatalf("span %s ends before it starts", s.Name)
		}
	}
}

func TestPctOfNothingIsZero(t *testing.T) {
	if got := pct([]float64{4, 1, 3, 2}, 50); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if pct(nil, 90) != 0 {
		t.Error("percentile of nothing is not 0")
	}
}

// smoke runs one traced batch of a workload at a tiny size and checks that
// it completes, records spans and reports its counters.
func smoke(t *testing.T, run func(*iter) error, counters ...string) *iter {
	t.Helper()
	rec := NewRecorder()
	it, err := execute(run, episodeSeeds(7, 1), rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := layerMetrics(it, rec)
	for _, c := range counters {
		if m[c] <= 0 {
			t.Errorf("%s = %v, want > 0", c, m[c])
		}
	}
	e := batchCost(it.eps)
	if e["setup_s"] <= 0 || e["run_s"] <= 0 || e["allocs_m"] <= 0 {
		t.Errorf("host metrics not measured: %v", e)
	}
	return it
}

func TestSmokeFirmSocial(t *testing.T) {
	smoke(t, func(it *iter) error { return firmSocial(it, 3*sim.Second) },
		"workload.submitted", "app.completed", "sim.events", "sim.run_s", "core.ticks", "core.tick_s",
		"tracedb.stored", "detect.pretrain_s", "app.calibrate_s")
}

func TestSmokeGen10kShardInvariant(t *testing.T) {
	horizon := 200 * sim.Millisecond
	two := smoke(t, func(it *iter) error { return genSharded(it, gen10k, horizon, 2, 2) },
		"workload.submitted", "sim.events", "sim.events_per_req", "topology.build_s", "harness.new_s")
	one, err := execute(func(it *iter) error { return genSharded(it, gen10k, horizon, 1, 1) }, episodeSeeds(7, 1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(two.fp, one.fp); d != "" {
		t.Fatalf("1 shard differs from 2: %s", d)
	}
}

func TestSmokeTrainFig11a(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two agents")
	}
	rec := NewRecorder()
	it, err := execute(trainFig11a(1), episodeSeeds(7, 2), rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := layerMetrics(it, rec)
	for _, c := range []string{"experiments.train_one_for_all_s", "experiments.train_transferred_s", "app.calibrate_s"} {
		if m[c] <= 0 {
			t.Errorf("%s = %v, want > 0", c, m[c])
		}
	}
	if len(it.eps) != 2 {
		t.Errorf("%d episodes, want 2", len(it.eps))
	}
}

// BENCHMARK.json must list exactly the metrics the program prints.
func TestBenchmarkJSONListsPrintedMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program prints %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), program prints %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndUnits)
	same("per_layer", spec.PerLayer, layerUnits)
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	if strings.Join(listed, ",") != strings.Join(names, ",") {
		t.Errorf("workloads %v, program has %v", listed, names)
	}
}

// A traced bench alternates traced and untraced batches after the warm-up
// and prints every per-layer metric.
func TestBenchTracedPrintsEveryLayerMetric(t *testing.T) {
	quick := workloadDef{name: "quick", episodes: 1, run: func(it *iter) error {
		sp := it.rec.Begin("topology.build")
		it.rec.End(sp)
		it.startRun()
		sp = it.rec.Begin("sim.run")
		time.Sleep(time.Millisecond)
		it.rec.End(sp)
		it.count("sim.events", 5)
		it.count("workload.submitted", 1)
		return nil
	}}
	dir := t.TempDir()
	res := bench(config{workload: quick, seed: 1, trace: true, traceDir: dir}, io.Discard, io.Discard)
	if !res.Correct || res.Attempted != 3 {
		t.Fatalf("got correct=%v attempted=%d", res.Correct, res.Attempted)
	}
	for _, u := range layerUnits {
		if _, ok := res.Metrics[u.name]; !ok {
			t.Errorf("missing per-layer metric %s", u.name)
		}
	}
	if got := res.Metrics["sim.events_per_req"].Value; got != 5 {
		t.Errorf("sim.events_per_req = %v, want 5", got)
	}
	if res.Metrics["sim.run_s"].Value <= 0 {
		t.Error("sim.run_s not measured")
	}
	if _, err := os.Stat(dir + "/quick-seed1.json"); err != nil {
		t.Errorf("spans not written: %v", err)
	}
}

// One slow run of an episode must not move the reported cost.
func TestMedianCostRejectsOneSlowRun(t *testing.T) {
	batch := func(run0, run1 float64) *iter {
		return &iter{eps: []map[string]float64{
			{"run_s": run0, "peak_heap_mb": 10},
			{"run_s": run1, "peak_heap_mb": 30},
		}}
	}
	got := medianCost([]*iter{batch(1, 2), batch(9, 2), batch(1, 2)})
	if got["run_s"] != 3 {
		t.Errorf("run_s = %v, want 3", got["run_s"])
	}
	if got["peak_heap_mb"] != 30 {
		t.Errorf("peak_heap_mb = %v, want the largest episode's 30", got["peak_heap_mb"])
	}
}

// With a speed probe, a batch runs probesPerBatch probes and its times are
// scaled by refProbe over the mean probe time; without one, they are not.
func TestExecuteScalesTimesByProbe(t *testing.T) {
	p, err := newSpeedProbe()
	if err != nil {
		t.Fatal(err)
	}
	run := func(it *iter) error {
		it.startRun()
		time.Sleep(5 * time.Millisecond)
		return nil
	}
	seeds := episodeSeeds(3, 5)
	raw, err := execute(run, seeds, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	it, err := execute(run, seeds, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if raw.scale != 1 || raw.probes != 0 {
		t.Errorf("unprobed batch: scale %v, %d probes", raw.scale, raw.probes)
	}
	if it.probes != probesPerBatch {
		t.Errorf("%d probes, want %d", it.probes, probesPerBatch)
	}
	want := float64(refProbe) * probesPerBatch / float64(it.probe)
	if it.scale != want {
		t.Errorf("scale %v, want %v", it.scale, want)
	}
	for i, e := range it.eps {
		if r := e["run_s"] / it.scale; r < 0.005 || r > 0.5 {
			t.Errorf("episode %d: unscaled run_s %v, want about 5ms", i, r)
		}
	}
}
