// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload of the FIRM simulator for a fixed time, repeating it on
// inputs generated from --seed, checks that the simulated results are
// correct and identical on every repetition, and prints host-side costs.
//
//	bash perfbench/run.sh --workload firm-social --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports end-to-end metrics (set-up, run, CPU,
// allocation and heap cost), its times scaled to a reference host speed
// that speed probes between the episodes measure (see speedProbe). With
// --trace 1 it times every call it makes into a layer of the program and
// reports per-layer metrics, the model's counters and the tracing
// overhead, and writes the spans to --trace-dir. The last line of standard output is one JSON object.
//
// The simulated statistics (latency, drops, SLO misses, CPU limit,
// rewards) describe the model, which has never been checked against real
// hardware; they are reported for information and checked only for
// determinism, never gated.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"firm/internal/rollout"
	"firm/internal/runner"
	"firm/internal/sim"
)

// iter is one execution of a workload: a batch of episodes, each an
// independent instance of the workload on its own seed. The workload calls
// into the program through it, marks where each episode's set-up ends and
// records its counters; iter keeps each episode's host costs.
type iter struct {
	seed int64     // the current episode's seed
	rec  *Recorder // nil when untraced
	recN int       // the recorder's batch label for this batch

	begin, runStart hostSnap // the current episode's marks
	started         bool

	eps      []map[string]float64 // each episode's end-to-end costs
	probe    time.Duration        // the speed probes run between the episodes
	probes   int
	scale    float64 // refProbe over the mean probe time; 1 without probes
	gcCycles uint64
	gcCPU    float64

	fp       fingerprint
	firstLen int                // the first episode's share of fp
	counters map[string]float64 // summed over episodes
	gauges   map[string]float64 // averaged over the episodes that set them
	gaugeN   map[string]int
}

// startRun marks the end of set-up: the next call runs simulated events.
func (it *iter) startRun() {
	it.runStart = readHost()
	it.started = true
}

// count records a deterministic counter, summed over the batch, and adds
// it to the fingerprint.
func (it *iter) count(name string, v float64) {
	if it.counters == nil {
		it.counters = map[string]float64{}
	}
	it.counters[name] += v
	it.fp.addFloat(name, v)
}

// gauge records a deterministic level (a percentile, a limit, a reward),
// averaged over the batch, and adds it to the fingerprint.
func (it *iter) gauge(name string, v float64) {
	if it.gauges == nil {
		it.gauges, it.gaugeN = map[string]float64{}, map[string]int{}
	}
	it.gauges[name] += v
	it.gaugeN[name]++
	it.fp.addFloat(name, v)
}

// episodeSeeds derives a batch's episode seeds from the run's seed.
func episodeSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = sim.DeriveSeed(seed, fmt.Sprintf("perfbench/episode/%d", i))
	}
	return out
}

// execute runs one batch: run once per seed. With a probe, it runs
// probesPerBatch probes spread between the episodes and scales the batch's
// times to the reference host speed (see speedProbe). A panic or a failed
// check is returned as an error.
func execute(run func(*iter) error, seeds []int64, rec *Recorder, probe *speedProbe) (*iter, error) {
	it := &iter{rec: rec, scale: 1}
	if rec != nil {
		rec.open = rec.open[:0]
		it.recN = rec.batch
	}
	for i, seed := range seeds {
		it.seed, it.started = seed, false
		if probe != nil {
			for range (i+1)*probesPerBatch/len(seeds) - i*probesPerBatch/len(seeds) {
				it.probe += probe.run()
				it.probes++
			}
		}
		end, peak, err := episode(run, it)
		if err != nil {
			return it, fmt.Errorf("seed %d: %w", seed, err)
		}
		if !it.started {
			return it, fmt.Errorf("seed %d: workload never started its run", seed)
		}
		it.eps = append(it.eps, map[string]float64{
			"setup_s":      elapsed(it.begin, it.runStart),
			"run_s":        elapsed(it.runStart, end),
			"cpu_s":        end.cpu - it.runStart.cpu,
			"allocs_m":     float64(end.allocs-it.runStart.allocs) / 1e6,
			"alloc_mb":     float64(end.bytes-it.runStart.bytes) / 1e6,
			"peak_heap_mb": float64(peak) / 1e6,
		})
		it.gcCycles += end.gcCycles - it.runStart.gcCycles
		it.gcCPU += end.gcCPU - it.runStart.gcCPU
		if len(it.eps) == 1 {
			it.firstLen = len(it.fp)
		}
	}
	for k, n := range it.gaugeN {
		it.gauges[k] /= float64(n)
	}
	if probe != nil {
		it.scale = float64(refProbe) * float64(it.probes) / float64(it.probe)
		for _, e := range it.eps {
			for _, k := range []string{"setup_s", "run_s", "cpu_s"} {
				e[k] *= it.scale
			}
		}
	}
	return it, nil
}

// episode runs one episode from a collected heap, returning the host
// reading at its end and the peak live heap it reached.
func episode(run func(*iter) error, it *iter) (end hostSnap, peak uint64, err error) {
	runtime.GC() // every episode starts from the same heap state
	h := startHeapPeak(5 * time.Millisecond)
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
		peak = h.Stop()
	}()
	it.begin = readHost()
	err = run(it)
	return readHost(), 0, err
}

// batchCost folds episode costs into a batch's: totals, except the peak
// heap, which is the largest of the episodes' peaks.
func batchCost(eps []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, e := range eps {
		for k, v := range e {
			if k == "peak_heap_mb" {
				out[k] = max(out[k], v)
			} else {
				out[k] += v
			}
		}
	}
	return out
}

// medianCost is the cost of a batch whose episodes each cost their median
// over the batches in its, so a burst of host noise during one run of an
// episode does not reach the result.
func medianCost(its []*iter) map[string]float64 {
	if len(its) == 0 {
		return map[string]float64{}
	}
	med := make([]map[string]float64, len(its[0].eps))
	for k := range med {
		med[k] = map[string]float64{}
		for _, u := range endToEndUnits {
			xs := make([]float64, len(its))
			for b, it := range its {
				xs[b] = it.eps[k][u.name]
			}
			med[k][u.name] = pct(xs, 50)
		}
	}
	return batchCost(med)
}

// endToEndUnits lists the end-to-end metrics in print order.
var endToEndUnits = []struct{ name, unit string }{
	{"setup_s", "s"}, {"run_s", "s"}, {"cpu_s", "s"},
	{"allocs_m", "M"}, {"alloc_mb", "MB"}, {"peak_heap_mb", "MB"},
}

// layerUnits lists the per-layer metrics a traced run prints. A workload
// that does not reach a layer reports 0 for it.
var layerUnits = []struct{ name, unit string }{
	{"topology.build_s", "s"},
	{"harness.new_s", "s"},
	{"app.calibrate_s", "s"},
	{"detect.pretrain_s", "s"},
	{"sim.run_s", "s"},
	{"sim.slice_ms_p50", "ms"},
	{"sim.slice_ms_p90", "ms"},
	{"sim.events", "count"},
	{"sim.events_per_req", "count"},
	{"sim.events_per_s", "1/s"},
	{"core.tick_s", "s"},
	{"core.tick_us_p50", "us"},
	{"core.tick_us_p90", "us"},
	{"core.ticks", "count"},
	{"core.actions", "count"},
	{"rl.train_s", "s"},
	{"rl.train_step_us_p50", "us"},
	{"rl.train_steps", "count"},
	{"experiments.train_one_for_all_s", "s"},
	{"experiments.train_transferred_s", "s"},
	{"tracedb.stored", "count"},
	{"tracedb.evicted", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"workload.submitted", "count"},
	{"app.completed", "count"},
	{"app.dropped", "count"},
	{"app.in_flight", "count"},
	{"app.violations", "count"},
	{"app.p99_ms", "ms"},
	{"cluster.cpu_limit_cores", "cores"},
	{"experiments.reward_one_for_all", "reward"},
	{"experiments.reward_transferred", "reward"},
	{"topology.self_s", "s"},
	{"harness.self_s", "s"},
	{"app.self_s", "s"},
	{"detect.self_s", "s"},
	{"rl.self_s", "s"},
	{"core.self_s", "s"},
	{"workload.self_s", "s"},
	{"injector.self_s", "s"},
	{"sim.self_s", "s"},
	{"tracedb.self_s", "s"},
	{"experiments.self_s", "s"},
	{"bench.trace_overhead_s", "s"},
	{"bench.batches", "count"},
	{"bench.host_scale", "ratio"},
}

// layerMetrics derives the per-layer metrics of one traced batch from its
// spans, counters and host readings.
func layerMetrics(it *iter, rec *Recorder) map[string]float64 {
	n := it.recN
	m := map[string]float64{}
	for k, v := range it.counters {
		m[k] = v
	}
	for k, v := range it.gauges {
		m[k] = v
	}
	sum := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s
	}
	for _, name := range []string{"topology.build", "harness.new", "app.calibrate", "detect.pretrain",
		"experiments.train_one_for_all", "experiments.train_transferred"} {
		m[name+"_s"] = sum(rec.durations(name, n))
	}
	slices := rec.durations("sim.run", n)
	m["sim.run_s"] = sum(slices)
	m["sim.slice_ms_p50"] = 1e3 * pct(slices, 50)
	m["sim.slice_ms_p90"] = 1e3 * pct(slices, 90)
	if sub := m["workload.submitted"]; sub > 0 {
		m["sim.events_per_req"] = m["sim.events"] / sub
	}
	if m["sim.run_s"] > 0 {
		m["sim.events_per_s"] = m["sim.events"] / m["sim.run_s"]
	}
	ticks := rec.durations("core.tick", n)
	m["core.tick_s"] = sum(ticks)
	m["core.tick_us_p50"] = 1e6 * pct(ticks, 50)
	m["core.tick_us_p90"] = 1e6 * pct(ticks, 90)
	steps := rec.durations("rl.train", n)
	m["rl.train_s"] = sum(steps)
	m["rl.train_step_us_p50"] = 1e6 * pct(steps, 50)
	m["runtime.gc_cycles"] = float64(it.gcCycles)
	m["runtime.gc_cpu_s"] = it.gcCPU
	m["bench.host_scale"] = it.scale
	for layer, s := range LayerSelf(rec.spans, n) {
		m[layer+".self_s"] = s
	}
	return m
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// config is one benchmark invocation.
type config struct {
	workload workloadDef
	seed     int64
	seconds  time.Duration
	trace    bool
	traceDir string
	probe    *speedProbe // nil: report unscaled host times
}

// bench runs cfg's workload: at least minBatches batches, and more while
// another is expected to end within cfg.seconds, then the workload's alt
// run on the first episode. When tracing, the first batch is a warm-up and
// the rest alternate traced and untraced, so the tracing overhead compares
// like with like. Every batch's fingerprint must equal the first batch's,
// and the alt run's the first episode's. Progress and failures go to log;
// the fingerprint goes to out.
func bench(cfg config, out, log io.Writer) result {
	var rec *Recorder
	// Three runs of each episode let the median discard one disturbed by
	// the host; a traced run needs a warm-up, a traced and an untraced one.
	const minBatches = 3
	if cfg.trace {
		rec = NewRecorder()
	}
	res := result{Metrics: map[string]metric{}}
	var ref *iter
	var plain, traced []*iter
	seeds := episodeSeeds(cfg.seed, cfg.workload.episodes)
	fail := func(label string, err error) {
		res.Failed++
		fmt.Fprintf(log, "perfbench: %s %s: %v\n", cfg.workload.name, label, err)
	}
	start := time.Now()
	more := func(i int) bool {
		elapsed := time.Since(start)
		return i < minBatches || elapsed+elapsed/time.Duration(i) <= cfg.seconds
	}
	for i := 0; more(i); i++ {
		tracedBatch := cfg.trace && i%2 == 1
		var r *Recorder
		if tracedBatch {
			r = rec
			r.batch = i
		}
		res.Attempted++
		it, err := execute(cfg.workload.run, seeds, r, cfg.probe)
		if err == nil && ref != nil {
			if d := Diff(ref.fp, it.fp); d != "" {
				err = fmt.Errorf("fingerprint differs from the first batch: %s", d)
			}
		}
		e := batchCost(it.eps)
		fmt.Fprintf(log, "perfbench: %s batch %d traced=%v ok=%v probe_ms=%.4g scale=%.4g", cfg.workload.name, i, tracedBatch, err == nil,
			1e3*it.probe.Seconds()/float64(max(1, it.probes)), it.scale)
		for _, u := range endToEndUnits {
			fmt.Fprintf(log, " %s=%.4g", u.name, e[u.name])
		}
		fmt.Fprintln(log)
		switch {
		case err != nil:
			fail(fmt.Sprintf("batch %d", i), err)
		case cfg.trace && i == 0:
		case tracedBatch:
			traced = append(traced, it)
		default:
			plain = append(plain, it)
		}
		if err == nil && ref == nil {
			ref = it
		}
	}
	if w := cfg.workload; w.alt != nil {
		res.Attempted++
		it, err := execute(w.alt, seeds[:1], nil, nil)
		if err == nil && ref != nil {
			if d := Diff(ref.fp[:ref.firstLen], it.fp); d != "" {
				err = fmt.Errorf("fingerprint differs from the first episode's: %s", d)
			}
		}
		if err != nil {
			fail(w.altName, err)
		}
	}
	if ref != nil {
		fmt.Fprintf(out, "fingerprint %s seed=%d %s %s\n", cfg.workload.name, cfg.seed, ref.fp.Hash(), ref.fp)
	}
	res.Correct = res.Failed == 0 && len(plain) > 0 && (!cfg.trace || len(traced) > 0)

	if !cfg.trace {
		cost := medianCost(plain)
		for _, u := range endToEndUnits {
			res.Metrics[u.name] = metric{cost[u.name], u.unit}
		}
		return res
	}
	perLayer := make([]map[string]float64, len(traced))
	for i, it := range traced {
		perLayer[i] = layerMetrics(it, rec)
	}
	for _, u := range layerUnits {
		xs := make([]float64, len(perLayer))
		for i, m := range perLayer {
			xs[i] = m[u.name]
		}
		res.Metrics[u.name] = metric{pct(xs, 50), u.unit}
	}
	res.Metrics["bench.trace_overhead_s"] = metric{medianCost(traced)["run_s"] - medianCost(plain)["run_s"], "s"}
	res.Metrics["bench.batches"] = metric{float64(len(traced)), "count"}
	if cfg.traceDir != "" {
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.workload.name, cfg.seed))
		if err := rec.WriteFile(path); err != nil {
			fmt.Fprintf(log, "perfbench: write spans: %v\n", err)
			res.Correct = false
		}
	}
	return res
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: firm-social|gen-10k|train-fig11a")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 30, "measure for about this many seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		traceDir = flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "where a traced run writes its spans")
	)
	flag.Parse()
	var cfg config
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
		if w.name == *name {
			cfg.workload = w
		}
	}
	if cfg.workload.run == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %v --seed N --seconds S --trace 0|1\n", names)
		os.Exit(2)
	}
	cfg.seed, cfg.seconds, cfg.trace, cfg.traceDir = *seed, time.Duration(*seconds)*time.Second, *trace == 1, *traceDir

	// Load discipline: at most two OS threads run Go code, experiment jobs
	// run one at a time, training uses one rollout worker, and gen-10k pins
	// its two shard workers itself.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	runner.SetWorkers(1)
	rollout.SetWorkers(1)
	probe, err := newSpeedProbe()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.probe = probe
	// A run that cannot finish in time is a failed run, not a hang.
	limit := cfg.seconds + 140*time.Second
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: still running after %v, giving up\n", limit)
		os.Exit(1)
	})

	res := bench(cfg, os.Stdout, os.Stderr)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}
