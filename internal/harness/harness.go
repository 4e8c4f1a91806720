// Package harness assembles complete FIRM testbeds: engine, cluster (the
// paper's 15-node Intel+IBM deployment by default), a benchmark application,
// tracing pipeline, telemetry, workload generator, anomaly injector, and —
// optionally — a resource-management policy (FIRM, the Kubernetes-HPA
// baseline, or the AIMD baseline). Experiments, examples, and integration
// tests all build on it.
//
// Both testbeds run on a sim.ShardedEngine and the one app.App. New builds
// the paper testbed on one shard: the tracing pipeline, telemetry, deploy
// module, injector and controllers bind to shard 0's engine, which they
// read and schedule on from inside events. NewSharded partitions a
// generated topology across shards for scale and has no tracing pipeline
// or controller.
package harness

import (
	"fmt"

	"firm/internal/app"
	"firm/internal/autoscale"
	"firm/internal/cluster"
	"firm/internal/core"
	"firm/internal/deploy"
	"firm/internal/detect"
	"firm/internal/injector"
	"firm/internal/rl"
	"firm/internal/sim"
	"firm/internal/svm"
	"firm/internal/telemetry"
	"firm/internal/topology"
	"firm/internal/trace"
	"firm/internal/tracedb"
	"firm/internal/workload"
)

// Options configures a testbed.
type Options struct {
	Seed int64
	Spec *topology.Spec
	// Nodes lists hardware profiles; nil selects the paper's 15-node
	// cluster: nine Intel Xeon class and six IBM Power class machines.
	Nodes []cluster.HardwareProfile
	// ClusterConfig overrides cluster defaults when non-nil.
	ClusterConfig *cluster.Config
	// TraceCap bounds the trace store (default 200k).
	TraceCap int
	// TelemetryInterval for the collector (default 250ms).
	TelemetryInterval sim.Time
	// MeterWindow for the workload meter (default 1s).
	MeterWindow sim.Time
	// SLOMargin calibrates SLO = uncontended P99 × margin when positive.
	SLOMargin float64
	// CalibrationN requests per endpoint during SLO calibration.
	CalibrationN int
}

// PaperNodes returns the §4.1 testbed: 15 two-socket servers, nine x86 and
// six ppc64.
func PaperNodes() []cluster.HardwareProfile {
	var out []cluster.HardwareProfile
	for i := 0; i < 9; i++ {
		out = append(out, cluster.XeonProfile)
	}
	for i := 0; i < 6; i++ {
		out = append(out, cluster.PowerProfile)
	}
	return out
}

// Bench is an assembled testbed. Eng advances it (Eng.RunFor); code that
// runs inside the simulation — timers, hooks — uses Eng.Shard(0).
type Bench struct {
	Opts     Options
	Eng      *sim.ShardedEngine
	Cluster  *cluster.Cluster
	DB       *tracedb.Store
	Coord    *trace.Coordinator
	App      *app.App
	Col      *telemetry.Collector
	Meter    *telemetry.Meter
	Deploy   *deploy.Module
	Injector *injector.Injector
	Gen      *workload.Generator

	// Attached policies (nil unless attached).
	FIRM *core.Controller
	HPA  *autoscale.HPA
	AIMD *autoscale.AIMD
}

// New builds a testbed. The workload generator is created by AttachWorkload.
func New(opts Options) (*Bench, error) {
	if opts.Spec == nil {
		return nil, fmt.Errorf("harness: Spec is required")
	}
	if opts.Nodes == nil {
		opts.Nodes = PaperNodes()
	}
	if opts.TraceCap <= 0 {
		opts.TraceCap = 200000
	}
	if opts.TelemetryInterval <= 0 {
		opts.TelemetryInterval = 250 * sim.Millisecond
	}
	if opts.MeterWindow <= 0 {
		opts.MeterWindow = sim.Second
	}
	if opts.Spec.BaseRPCDelay <= 0 {
		return nil, fmt.Errorf("harness: spec %s needs a positive BaseRPCDelay (it is the engine lookahead)", opts.Spec.Name)
	}
	se := sim.NewShardedEngine(opts.Seed, 1, opts.Spec.BaseRPCDelay)
	eng := se.Shard(0)
	ccfg := cluster.DefaultConfig()
	if opts.ClusterConfig != nil {
		ccfg = *opts.ClusterConfig
	}
	cl := cluster.New(eng, ccfg)
	for _, prof := range opts.Nodes {
		cl.AddNode(prof)
	}
	db := tracedb.New(opts.TraceCap)
	coord := trace.NewCoordinator(eng, db)
	a, err := app.DeployOne(se, cl, opts.Spec, coord)
	if err != nil {
		return nil, err
	}
	var types []string
	for _, ep := range opts.Spec.Endpoints {
		types = append(types, ep.Name)
	}
	b := &Bench{
		Opts:     opts,
		Eng:      se,
		Cluster:  cl,
		DB:       db,
		Coord:    coord,
		App:      a,
		Col:      telemetry.NewCollector(eng, cl, opts.TelemetryInterval, 2000),
		Meter:    telemetry.NewMeter(eng, opts.MeterWindow, types),
		Deploy:   deploy.New(eng, cl),
		Injector: injector.New(eng, opts.Seed),
	}
	b.Col.Start()
	if opts.SLOMargin > 0 {
		n := opts.CalibrationN
		if n <= 0 {
			n = 20
		}
		a.Calibrate(n, opts.SLOMargin)
	}
	return b, nil
}

// AttachWorkload creates and starts the open-loop generator, and wires the
// injector's workload-variation anomaly to it.
func (b *Bench) AttachWorkload(p workload.Pattern) *workload.Generator {
	b.Gen = workload.NewGenerator(b.App, p, b.Meter, b.Opts.Seed)
	b.Injector.SpikeHook = func(intensity float64, d sim.Time) {
		b.Gen.Spike(intensity*3, d) // intensity 1 → 4× rate
	}
	b.Gen.Start()
	return b.Gen
}

// NewExtractor builds a pre-trained critical-component extractor for the
// given seed. The controller only reads it (Candidates/Decision), so one
// extractor may be shared across many benches — including concurrently by
// rollout workers — as long as nothing calls its online Train.
func NewExtractor(seed int64) *detect.Extractor {
	ext := detect.New(detect.DefaultConfig(), svm.New(svm.DefaultConfig()))
	if err := ext.Pretrain(seed, 4000); err != nil {
		panic(err) // deterministic synthetic data cannot fail
	}
	return ext
}

// NewExtractor builds a pre-trained critical-component extractor seeded by
// the bench seed.
func (b *Bench) NewExtractor() *detect.Extractor {
	return NewExtractor(b.Opts.Seed)
}

// AttachFIRM wires and starts a FIRM controller with the given agents.
func (b *Bench) AttachFIRM(cfg core.Config, prov core.AgentProvider, ext *detect.Extractor) *core.Controller {
	if ext == nil {
		ext = b.NewExtractor()
	}
	b.FIRM = core.New(cfg, b.App, b.DB, b.Col, b.Meter, b.Deploy, ext, prov)
	b.FIRM.Start()
	return b.FIRM
}

// AttachHPA wires and starts the Kubernetes-autoscaler baseline.
func (b *Bench) AttachHPA(target float64, sync sim.Time) *autoscale.HPA {
	b.HPA = autoscale.NewHPA(b.Cluster, b.Deploy, target, sync)
	b.HPA.Start()
	return b.HPA
}

// AttachAIMD wires and starts the AIMD baseline.
func (b *Bench) AttachAIMD(period sim.Time) *autoscale.AIMD {
	b.AIMD = autoscale.NewAIMD(b.Cluster, b.Deploy, period)
	b.AIMD.Start()
	return b.AIMD
}

// Containers returns all application containers (injection targets).
func (b *Bench) Containers() []*cluster.Container {
	var out []*cluster.Container
	for _, rs := range b.Cluster.ReplicaSets() {
		out = append(out, rs.Containers()...)
	}
	return out
}

// SharedAgent builds a one-for-all provider with Table 4 hyperparameters.
func SharedAgent(seed int64) core.AgentProvider {
	cfg := rl.DefaultConfig()
	cfg.Seed = seed
	return core.SharedAgent{A: rl.New(cfg)}
}

// PerServiceAgents builds a one-for-each provider; base non-nil enables
// transfer learning.
func PerServiceAgents(seed int64, base *rl.Agent) core.AgentProvider {
	cfg := rl.DefaultConfig()
	cfg.Seed = seed
	return &core.PerServiceAgents{Cfg: cfg, Base: base}
}
