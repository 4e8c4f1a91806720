// Package perf is firmbench's microbenchmark registry: deterministic
// benchmarks of the hot paths the campaign loop multiplies — the
// controller tick, the sliding tail-latency window, trace-window
// selection, telemetry sampling, the batched DDPG train step (with its
// retained per-sample reference), the incremental localization features,
// a double-buffered rollout round, and the request path layer by layer
// (engine event, container dispatch, replica pick, app hop, whole
// request).
// `firmbench -bench` runs them and records the results as a canonical
// BENCH_*.json (internal/report floats), which is how the repo's perf
// trajectory is tracked across PRs (`firmbench -bench-trend` tabulates
// it); `go test -bench` exposes the same functions as ordinary benchmarks
// (bench_test.go).
//
// Wall-clock (ns/op) varies by machine, but allocs/op, bytes/op, and the
// comparison counts are exact and deterministic — those are the regression
// metrics CI enforces (see the bench job's -bench-allocs thresholds).
package perf

import (
	"fmt"
	"runtime"
	"testing"

	"firm/internal/cluster"
	"firm/internal/core"
	"firm/internal/detect"
	"firm/internal/harness"
	"firm/internal/nn"
	"firm/internal/rl"
	"firm/internal/rollout"
	"firm/internal/scenario"
	"firm/internal/sim"
	"firm/internal/stats"
	"firm/internal/topology"
	"firm/internal/trace"
	"firm/internal/tracedb"
	"firm/internal/workload"
)

// Seed fixes every microbenchmark's simulated setup.
const Seed = 42

// Benchmark is one registered microbenchmark.
type Benchmark struct {
	Name string
	Desc string
	Fn   func(b *testing.B)
}

// Benchmarks returns the registry in its canonical (report) order.
func Benchmarks() []Benchmark {
	return []Benchmark{
		{"core-tick", "controller tick, incremental window (steady non-violated state)", CoreTick},
		{"core-tick-naive", "the replaced per-tick work: re-select window, batch-sort P99", CoreTickNaive},
		{"stats-window", "stats.Window insert+evict+P99 at W=1024", StatsWindow},
		{"tracedb-select", "tracedb.SelectAppend of a 2s window from a 200k-capacity ring", TracedbSelect},
		{"telemetry-add", "telemetry ring add at full retention", TelemetryAdd},
		{"nn-forward-batch", "one batched actor forward (batch 64, Table 4 shape)", NNForwardBatch},
		{"rl-train-step-batched", "one DDPG TrainStep on the matrix minibatch path (batch 64, Table 4 nets)", RLTrainStepBatched},
		{"rl-train-step-seq", "the replaced per-sample TrainStep, kept as the speedup reference", RLTrainStepSeq},
		{"detect-features", "incremental localizer rescore at steady state (the violated-tick path)", DetectFeatures},
		{"rollout-round-overlap", "one double-buffered rollout campaign: 2 actors + streaming learner", RolloutRoundOverlap},
		{"topology-generate", "procedural generation + validation of a 1,000-service spec", TopologyGenerate},
		{"topology-generate-10k", "procedural generation + validation of a 10,000-service spec (the sharded sweep's top cell)", TopologyGenerate10k},
		{"workload-arrivals", "thinned arrival sampling: 10ms of a 2,600 rps spiked-diurnal bound", WorkloadArrivals},
		{"engine-event", "one event dispatch plus the reschedule it makes, 4,096 pending (engine layer)", EngineEvent},
		{"container-dispatch", "one work completion, resubmission and queue dispatch on a 4-worker container (cluster layer)", ContainerDispatch},
		{"replica-pick", "one round-robin replica pick over 8 replicas, every other one still starting (cluster layer)", ReplicaPick},
		{"app-hop", "one 1-shard App call: call mail, replica pick, work, result mail (app layer)", AppHop},
		{"request-e2e", "one request of a 200-service generated spec on a 1-shard App at 200 rps", RequestE2E},
		{"shard-step", "one lookahead window of an 8-shard ring at steady state (mail routing + window barrier)", ShardStep},
		{"scenario-step", "one armed fault-scenario tick: recompute and apply every active site's pressure", ScenarioStep},
	}
}

// Find returns the named benchmark.
func Find(name string) (Benchmark, error) {
	for _, bm := range Benchmarks() {
		if bm.Name == name {
			return bm, nil
		}
	}
	return Benchmark{}, fmt.Errorf("perf: unknown benchmark %q", name)
}

// Result is one benchmark outcome in report-friendly form.
type Result struct {
	Name        string
	Iterations  int
	NsPerOp     float64
	AllocsPerOp float64
	BytesPerOp  float64
	Extra       map[string]float64
}

// Run executes the named benchmarks (all of them when names is empty) via
// testing.Benchmark and returns results in registry order.
func Run(names []string) ([]Result, error) {
	var selected []Benchmark
	if len(names) == 0 {
		selected = Benchmarks()
	} else {
		for _, n := range names {
			bm, err := Find(n)
			if err != nil {
				return nil, err
			}
			selected = append(selected, bm)
		}
	}
	out := make([]Result, 0, len(selected))
	for _, bm := range selected {
		r := testing.Benchmark(bm.Fn)
		res := Result{
			Name:        bm.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: float64(r.AllocsPerOp()),
			BytesPerOp:  float64(r.AllocedBytesPerOp()),
		}
		if len(r.Extra) > 0 {
			res.Extra = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				res.Extra[k] = v
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// tickBed is the shared testbed for the tick benchmarks: the paper's
// hotel-reservation app under steady load, traces and telemetry populated,
// a FIRM controller wired but not started (the benchmark drives ticks
// itself, at a frozen clock, so every iteration measures the same
// steady-state window).
type tickBed struct {
	tb  *harness.Bench
	ctl *core.Controller
}

// newTickBed panics (with context) on setup failure rather than calling
// b.Fatal: firmbench -bench drives these functions through a bare
// testing.Benchmark, where b.Fatal crashes inside the testing package with
// an unreadable nil-pointer panic. A descriptive panic is the only clean
// failure channel outside the test framework.
func newTickBed() tickBed {
	tb, err := harness.New(harness.Options{
		Seed:         Seed,
		Spec:         topology.HotelReservation(),
		SLOMargin:    1.6,
		CalibrationN: 6,
	})
	if err != nil {
		panic(fmt.Sprintf("perf: tick testbed setup failed: %v", err))
	}
	tb.AttachWorkload(workload.Constant{RPS: 120})
	cfg := core.DefaultConfig()
	cfg.IdleReclaim = 0 // measure the detection path, not limit decay
	ctl := core.New(cfg, tb.App, tb.DB, tb.Col, tb.Meter, tb.Deploy,
		harness.NewExtractor(Seed), harness.SharedAgent(Seed))
	tb.Eng.RunFor(5 * sim.Second) // populate the ring and the window mirror
	return tickBed{tb: tb, ctl: ctl}
}

// CoreTick measures the per-tick control-loop cost on the incremental
// window: violation check, effective P99, reward bookkeeping. The extra
// cmp/op metric is the exact number of key comparisons per tick inside the
// order-statistics window; window is its size.
func CoreTick(b *testing.B) {
	bed := newTickBed()
	bed.ctl.TickNow() // reach steady state (first tick advances the window)
	mon := bed.ctl.Monitor()
	cmp0 := mon.Comparisons()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bed.ctl.TickNow()
	}
	b.StopTimer()
	b.ReportMetric(float64(mon.Comparisons()-cmp0)/float64(b.N), "cmp/op")
	b.ReportMetric(float64(mon.Len()), "window")
}

// CoreTickNaive measures exactly the per-tick work the incremental window
// replaced: re-select the trace window from the store, batch-check the SLO,
// and copy+sort the latencies for the P99 — the pre-optimization tick path,
// kept as the committed reference point for BENCH_*.json's allocs/op ratio.
func CoreTickNaive(b *testing.B) {
	bed := newTickBed()
	eng, db, slo := bed.tb.Eng, bed.tb.DB, bed.tb.App.SLO
	window := core.DefaultConfig().Window
	b.ReportAllocs()
	b.ResetTimer()
	var p99 float64
	var n int
	for i := 0; i < b.N; i++ {
		traces := db.Select(tracedb.Query{Since: eng.Now() - window, IncludeDrop: true})
		detect.Violated(traces, slo)
		var lats []float64
		for _, t := range traces {
			if !t.Dropped {
				lats = append(lats, t.Latency().Millis())
			}
		}
		p99 = stats.Percentile(lats, 99)
		n = len(traces)
	}
	b.StopTimer()
	_ = p99
	b.ReportMetric(float64(n), "window")
}

// StatsWindow measures one evict+insert+P99 cycle on a 1024-observation
// window — the steady-state cost a completing trace adds to the tick path.
func StatsWindow(b *testing.B) {
	w := stats.NewWindow(1024)
	r := sim.Stream(Seed, "perf-stats-window")
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = r.Float64() * 100
		w.Add(xs[i])
	}
	cmp0 := w.Comparisons()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := xs[i%len(xs)]
		w.Remove(x)
		w.Add(x)
		w.Percentile(99)
	}
	b.StopTimer()
	b.ReportMetric(float64(w.Comparisons()-cmp0)/float64(b.N), "cmp/op")
}

// TracedbSelect measures selecting a 2-second suffix window out of a full
// 200k-trace ring into a reused buffer — the violated-tick path.
func TracedbSelect(b *testing.B) {
	const cap = 200000
	db := tracedb.New(cap)
	traces := make([]trace.Trace, cap)
	for i := range traces {
		end := sim.Time(i) * sim.Millisecond
		traces[i] = trace.Trace{ID: trace.TraceID(i + 1), Start: end - 10*sim.Millisecond, End: end}
		db.Consume(&traces[i])
	}
	since := traces[cap-1].End - 2*sim.Second
	var buf []*trace.Trace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = db.SelectAppend(buf[:0], tracedb.Query{Since: since, IncludeDrop: true})
	}
	b.StopTimer()
	b.ReportMetric(float64(len(buf)), "selected")
}

// TelemetryAdd measures one full sampling pass (every container and node)
// with all retention rings at capacity — the steady state every collector
// interval pays. In-place ring overwrites make this allocation-free; the
// replaced slice-reslicing implementation allocated on every growth and
// pinned evicted prefixes.
func TelemetryAdd(b *testing.B) {
	bed := newTickBed()
	col := bed.tb.Col
	// The harness retains 2000 samples per series; fill every ring so each
	// measured pass overwrites in place.
	for i := 0; i < 2001; i++ {
		col.SampleNow()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.SampleNow()
	}
}

// newTrainAgent builds the Table-4 agent with a filled replay buffer shared
// by the train-step benchmarks, so batched and sequential runs measure the
// same minibatch distribution.
func newTrainAgent() *rl.Agent {
	cfg := rl.DefaultConfig()
	cfg.Seed = Seed
	cfg.ActorDelay = 0
	ag := rl.New(cfg)
	r := sim.Stream(Seed, "perf-nn")
	mkvec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = r.Float64()
		}
		return v
	}
	for i := 0; i < 4*cfg.BatchSize; i++ {
		ag.Observe(rl.Transition{
			S: mkvec(cfg.StateDim), A: mkvec(cfg.ActionDim),
			R: r.Float64(), S2: mkvec(cfg.StateDim), Done: i%64 == 63,
		})
	}
	return ag
}

// RLTrainStepBatched measures one DDPG update on the matrix minibatch path:
// minibatch sample, batched critic regression, batched actor ascent, soft
// target updates (Table 4 network shapes, batch 64).
func RLTrainStepBatched(b *testing.B) {
	ag := newTrainAgent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ag.TrainStep(); !ok {
			// Impossible by construction (4×BatchSize observations above);
			// panic rather than b.Fatal — see newTickBed.
			panic("perf: TrainStep skipped: buffer underfilled")
		}
	}
}

// RLTrainStepSeq measures the per-sample TrainStep the batched path
// replaced. It is retained (rl.TrainStepSequential) precisely so this
// reference point stays honest: the batched/sequential ns/op ratio in
// BENCH_*.json is the minibatch optimization's receipt.
func RLTrainStepSeq(b *testing.B) {
	ag := newTrainAgent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ag.TrainStepSequential(); !ok {
			panic("perf: TrainStepSequential skipped: buffer underfilled")
		}
	}
}

// NNForwardBatch measures one batched forward through the paper's actor
// shape (8→40→40→5) at batch 64 — the building block both TrainStep phases
// and PretrainActor lean on. Steady state is allocation-free: the batch
// scratch is owned by the net and only the caller's input matrix varies.
func NNForwardBatch(b *testing.B) {
	const batch = 64
	r := sim.Stream(Seed, "perf-nn-forward")
	net := nn.New(r, []int{8, 40, 40, 5}, []nn.Activation{nn.ReLU, nn.ReLU, nn.Tanh})
	xb := make([]float64, batch*8)
	for i := range xb {
		xb[i] = 2*r.Float64() - 1
	}
	net.ForwardBatch(xb, batch) // size the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatch(xb, batch)
	}
	b.StopTimer()
	b.ReportMetric(batch, "rows/op")
}

// DetectFeatures measures a violated tick's localization cost on the
// incremental path: with the window mirrored and folded, one op is
// Advance (no-op pops) plus a full Candidates rescore — per-instance
// Pearson over the pair rings, windowed percentiles, and SVM scoring.
// Steady state is allocation-free.
func DetectFeatures(b *testing.B) {
	bed := newTickBed()
	loc := detect.NewLocalizer(harness.NewExtractor(Seed), 256)
	bed.tb.DB.Observe(loc) // replays the populated ring
	since := bed.tb.Eng.Now() - core.DefaultConfig().Window
	loc.Advance(since)
	if len(loc.Candidates()) == 0 {
		panic("perf: detect-features testbed produced no candidates")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loc.Advance(since)
		loc.Candidates()
	}
	b.StopTimer()
	b.ReportMetric(float64(loc.Len()), "window")
}

// RolloutRoundOverlap measures one double-buffered rollout campaign — two
// rounds of four synthetic episodes on two actor replicas with the learner
// replaying completed episodes concurrently (rollout's default mode). It
// exercises snapshot publication, replica sync, streaming replay, and the
// batched TrainStep together: the end-to-end training inner loop.
func RolloutRoundOverlap(b *testing.B) {
	cfg := rl.DefaultConfig()
	cfg.Seed = Seed
	learner := core.SharedAgent{A: rl.New(cfg)}
	runEp := func(ep int, prov core.AgentProvider, sink core.TransitionSink) (float64, error) {
		r := sim.Stream(Seed, fmt.Sprintf("perf-rollout/ep%d", ep))
		state := make([]float64, cfg.StateDim)
		for i := range state {
			state[i] = r.Float64()
		}
		var total float64
		const steps = 24
		for step := 0; step < steps; step++ {
			ag := prov.AgentFor("svc")
			act := ag.ActExplore(state)
			var reward float64
			for _, a := range act {
				reward -= a * a
			}
			next := make([]float64, len(state))
			for i := range next {
				next[i] = 0.9*state[i] + 0.1*act[i%len(act)] + 0.02*r.Float64()
			}
			sink("svc", rl.Transition{S: state, A: act, R: reward, S2: next, Done: step == steps-1})
			total += reward
			state = next
		}
		return total, nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rollout.Run(rollout.Options{
			Episodes: 8, Workers: 2, SyncEvery: 4,
			Seed: Seed, Key: fmt.Sprintf("perf-overlap/%d", i),
			Learner: learner, RunEpisode: runEp,
		}); err != nil {
			panic(fmt.Sprintf("perf: rollout campaign failed: %v", err))
		}
	}
	b.StopTimer()
	b.ReportMetric(8, "episodes/op")
}

// TopologyGenerate measures procedural generation (plus the hardened
// Validate it runs internally) of a 1,000-service spec — the per-cell
// setup cost of every web-scale sweep, and the large-graph target ROADMAP
// item 5's profiling flywheel asks for.
func TopologyGenerate(b *testing.B) {
	p := topology.Params{Services: 1000, Endpoints: 8, MaxFanout: 3, Depth: 6}
	var spec *topology.Spec
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		spec, err = topology.Generate(p, Seed)
		if err != nil {
			panic(fmt.Sprintf("perf: generate failed: %v", err))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(spec.NumServices()), "services")
}

// WorkloadArrivals measures the thinned open-loop arrival path end to end:
// candidate proposals against a fast-varying composite bound (diurnal base
// with stochastic spikes), accept/reject thinning, and the accepted
// arrivals' submission into a minimal 2-service generated app. Each
// iteration advances the simulation 10ms (~26 proposals at the composite's
// 2,600 rps bound).
func WorkloadArrivals(b *testing.B) {
	spec, err := topology.Generate(topology.Params{Services: 2, Endpoints: 1, MaxFanout: 1, Depth: 2}, Seed)
	if err != nil {
		panic(fmt.Sprintf("perf: generate failed: %v", err))
	}
	tb, err := harness.New(harness.Options{Seed: Seed, Spec: spec})
	if err != nil {
		panic(fmt.Sprintf("perf: harness failed: %v", err))
	}
	spikes, err := workload.NewSpikes(
		workload.Diurnal{Base: 800, Amplitude: 400, Period: sim.Second},
		2, 50*sim.Millisecond, 10*sim.Millisecond, sim.Hour, Seed)
	if err != nil {
		panic(fmt.Sprintf("perf: spikes failed: %v", err))
	}
	gen := tb.AttachWorkload(workload.Sum{workload.Constant{RPS: 200}, spikes})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Eng.RunFor(10 * sim.Millisecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(gen.Submitted), "arrivals")
}

// TopologyGenerate10k measures generation + validation of the sharded
// sweep's top cell: a 10,000-service spec. Setup at this size is itself a
// scaling surface — a superlinear generator would dominate the cell's
// wall-clock before the first event fires.
func TopologyGenerate10k(b *testing.B) {
	p := topology.Params{Services: 10000, Endpoints: 12, MaxFanout: 2, Depth: 8}
	var spec *topology.Spec
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		spec, err = topology.Generate(p, Seed)
		if err != nil {
			panic(fmt.Sprintf("perf: generate failed: %v", err))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(spec.NumServices()), "services")
}

// ShardStep measures the sharded engine's hot loop at steady state: one op
// advances an 8-shard system by one lookahead window, carrying eight mail
// rings (every shard forwards one mail per window) plus one local
// self-rescheduling event per shard. It covers outbox collection, inbox
// heap routing, barrier bookkeeping, and the per-shard event loop — and
// must run at 0 allocs/op: event records live in a reused slot table and
// mails by value in reused heaps and buffers, so a regression here means
// a per-event allocation crept into the window path. Workers are pinned
// to 1 (the inline path): goroutine handoff is measured by wall-clock
// elsewhere, and allocation accounting must not depend on scheduler
// timing.
func ShardStep(b *testing.B) {
	const nShards = 8
	const lookahead = 100 * sim.Microsecond
	se := sim.NewShardedEngine(Seed, nShards, lookahead)
	se.SetWorkers(1)
	// step[r][j] runs on shard j and forwards ring r to shard j+1. Keys are
	// the ring index: at any timestamp the eight in-flight mails carry
	// distinct rings, satisfying the key-uniqueness contract.
	step := make([][]func(), nShards)
	for r := 0; r < nShards; r++ {
		step[r] = make([]func(), nShards)
	}
	for r := 0; r < nShards; r++ {
		for j := 0; j < nShards; j++ {
			r, j := r, j
			next := (j + 1) % nShards
			step[r][j] = func() { se.Send(j, next, lookahead, sim.Func(step[r][next]), uint64(r), 0) }
		}
	}
	local := make([]func(), nShards)
	for j := 0; j < nShards; j++ {
		j := j
		local[j] = func() { se.Shard(j).Schedule(37*sim.Microsecond, local[j]) }
	}
	for r := 0; r < nShards; r++ {
		se.Shard(r).Schedule(1, step[r][r])
		se.Shard(r).Schedule(1, local[r])
	}
	se.RunFor(50 * sim.Millisecond) // steady state: heaps, freelists, buffers all grown
	before := se.Steps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		se.RunFor(lookahead)
	}
	b.StopTimer()
	b.ReportMetric(float64(se.Steps()-before)/float64(b.N), "events/op")
}

// ScenarioStep measures one fault-scenario player tick with every mode
// family active at once: per-site pressure recomputation (leak ramp,
// plateau saturation, metastable feedback) and the injected-load delta
// application. The campaign loop pays this every TickPeriod for each
// armed scenario, so it must run at 0 allocs/op — sites are preallocated
// at NewPlayer and advance only mutates them.
func ScenarioStep(b *testing.B) {
	spec, err := topology.Generate(topology.Params{Services: 12, Endpoints: 2, MaxFanout: 3, Depth: 3}, Seed)
	if err != nil {
		panic(fmt.Sprintf("perf: generate failed: %v", err))
	}
	tb, err := harness.New(harness.Options{Seed: Seed, Spec: spec})
	if err != nil {
		panic(fmt.Sprintf("perf: harness failed: %v", err))
	}
	const d = 30 * sim.Second
	sc := scenario.Overlay(
		scenario.Mode(scenario.MemLeak, 0.6, d),
		scenario.Mode(scenario.Plateau, 0.6, d),
		scenario.Mode(scenario.Metastable, 0.7, d),
		scenario.Mode(scenario.Cascade, 0.7, d).WithProb(0.5),
	)
	p, err := scenario.NewPlayer(scenario.Env{Eng: tb.Eng.Shard(0), Cluster: tb.Cluster, Spec: spec}, sc, Seed)
	if err != nil {
		panic(fmt.Sprintf("perf: player failed: %v", err))
	}
	p.Arm()
	tb.Eng.RunFor(d / 3) // mid-scenario: every atom active, sites populated
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.StepNow()
	}
}

// engineChurn reschedules each event it handles at a pseudo-random delay
// of 1-1,024µs, so the engine's pending population stays constant.
type engineChurn struct {
	eng *sim.Engine
	x   uint64
}

func (c *engineChurn) Handle(a, _ uint64) {
	c.x = c.x*6364136223846793005 + 1442695040888963407
	c.eng.ScheduleEvent(c.eng.Now()+1+sim.Time(c.x>>54), c, a, 0)
}

// EngineEvent measures the engine layer alone: one op pops the earliest of
// 4,096 pending events, dispatches it to its handler, and pushes the event
// the handler schedules. It must run at 0 allocs/op.
func EngineEvent(b *testing.B) {
	eng := sim.NewEngine(Seed)
	h := &engineChurn{eng: eng, x: Seed}
	for i := 0; i < 4096; i++ {
		eng.ScheduleEvent(sim.Time(i%1024), h, uint64(i), 0)
	}
	for i := 0; i < 1<<16; i++ {
		eng.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(eng.Pending()), "pending")
}

// dispatchLoop resubmits every work item that completes, keeping a fixed
// number of items on its container.
type dispatchLoop struct {
	c *cluster.Container
	w cluster.Work
}

func (l *dispatchLoop) WorkDone(token uint64, _, _ sim.Time) {
	l.w.Token = token
	l.c.Submit(l.w)
}

func (l *dispatchLoop) WorkDropped(uint64) { panic("perf: container-dispatch shed work") }

// ContainerDispatch measures the cluster layer: one op is one completion
// event on a 4-worker container holding 16 items, whose receiver
// resubmits the item to the back of the FIFO while the freed worker takes
// the queue's head. It must run at 0 allocs/op.
func ContainerDispatch(b *testing.B) {
	eng := sim.NewEngine(Seed)
	cl := cluster.New(eng, cluster.DefaultConfig())
	cl.AddNode(cluster.XeonProfile)
	rs, err := cl.DeployService("svc", 1, cluster.V(4, 2000, 8, 200, 400))
	if err != nil {
		panic(fmt.Sprintf("perf: deploy failed: %v", err))
	}
	c := rs.Pick()
	l := &dispatchLoop{c: c, w: cluster.Work{Base: sim.Millisecond, Demand: cluster.V(1, 300, 1, 10, 40)}}
	l.w.To = l
	for i := 0; i < 16; i++ {
		l.w.Token = uint64(i)
		c.Submit(l.w)
	}
	for i := 0; i < 1000; i++ {
		eng.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(c.QueueLen()), "queued")
}

// ReplicaPick measures replica selection, which every call pays on the
// callee's shard: one op is one round-robin Pick on a service of 8
// replicas where every other replica is still starting, so a pick scans
// one or two containers. It must run at 0 allocs/op.
func ReplicaPick(b *testing.B) {
	eng := sim.NewEngine(Seed)
	cl := cluster.New(eng, cluster.DefaultConfig())
	cl.AddNode(cluster.XeonProfile)
	cl.AddNode(cluster.XeonProfile)
	rs, err := cl.DeployService("svc", 0, cluster.V(1, 300, 1, 10, 40))
	if err != nil {
		panic(fmt.Sprintf("perf: deploy failed: %v", err))
	}
	for i := 0; i < 8; i++ {
		// The odd replicas' warm starts are scheduled but the engine never
		// runs, so they stay not ready.
		if _, err := rs.AddReplica(cluster.V(1, 300, 1, 10, 40), false, i%2 == 0); err != nil {
			panic(fmt.Sprintf("perf: add replica failed: %v", err))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rs.Pick() == nil {
			panic("perf: replica-pick found no ready replica")
		}
	}
}

// requestPath returns a 1-shard sharded testbed on spec with the noise-free
// default cluster, plus its engine.
func requestPath(spec *topology.Spec) *harness.ShardedBench {
	tb, err := harness.NewSharded(harness.ShardedOptions{Seed: Seed, Spec: spec, Shards: 1})
	if err != nil {
		panic(fmt.Sprintf("perf: sharded testbed failed: %v", err))
	}
	return tb
}

// AppHop measures the app layer: one op submits a request whose workflow
// is a single 500µs call and runs the engine 2ms, through the call mail,
// replica pick, container work and the result mail that finishes the
// request. It must run at 0 allocs/op.
func AppHop(b *testing.B) {
	spec := &topology.Spec{
		Name: "app-hop",
		Services: map[string]*topology.Service{"svc": {Name: "svc", Class: topology.Logic, Replicas: 1,
			Demand: cluster.V(1, 300, 1, 10, 40), Limits: cluster.V(2, 900, 3, 60, 150)}},
		Endpoints:    []topology.Endpoint{{Name: "get", Weight: 1, Root: &topology.Call{Service: "svc", Compute: 500 * sim.Microsecond}}},
		SLO:          500 * sim.Millisecond,
		BaseRPCDelay: 300 * sim.Microsecond,
	}
	tb := requestPath(spec)
	op := func() {
		if err := tb.App.Submit("get", nil); err != nil {
			panic(fmt.Sprintf("perf: submit failed: %v", err))
		}
		tb.Eng.RunFor(2 * sim.Millisecond)
	}
	for i := 0; i < 100; i++ {
		op()
	}
	done0, steps0 := tb.App.Completed, tb.Eng.Steps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	if tb.App.Completed-done0 != uint64(b.N) {
		panic(fmt.Sprintf("perf: app-hop completed %d of %d requests", tb.App.Completed-done0, b.N))
	}
	b.ReportMetric(float64(tb.Eng.Steps()-steps0)/float64(b.N), "events/op")
}

// RequestE2E measures the whole request path: a 200-service generated
// spec (6 endpoints, fan-out 3, depth 6) on a 1-shard App, one op
// submitting one request from the endpoint mix and advancing 5ms, an
// open-loop 200 rps. Requests overlap; per-request figures divide by the
// ops. Warm-up first runs 1,000 requests, so pools, rings and the noise
// sources the spec reaches exist before timing starts.
func RequestE2E(b *testing.B) {
	spec, err := topology.Generate(topology.Params{Services: 200, Endpoints: 6, MaxFanout: 3, Depth: 6}, Seed)
	if err != nil {
		panic(fmt.Sprintf("perf: generate failed: %v", err))
	}
	tb := requestPath(spec)
	r := sim.Stream(Seed, "perf-request-e2e")
	op := func() {
		if _, err := tb.App.SubmitMix(r, nil); err != nil {
			panic(fmt.Sprintf("perf: submit failed: %v", err))
		}
		tb.Eng.RunFor(5 * sim.Millisecond)
	}
	for i := 0; i < 1000; i++ {
		op()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	steps0 := tb.Eng.Steps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(tb.Eng.Steps()-steps0)/float64(b.N), "events/req")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/req")
}
