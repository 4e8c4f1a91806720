package main

import (
	"fmt"
	"strconv"
	"strings"

	"firm/internal/app"
	"firm/internal/cluster"
	"firm/internal/core"
	"firm/internal/experiments"
	"firm/internal/harness"
	"firm/internal/injector"
	"firm/internal/rl"
	"firm/internal/sim"
	"firm/internal/stats"
	"firm/internal/topology"
	"firm/internal/tracedb"
	"firm/internal/workload"
)

// Sizes of the three workloads. An episode is one fixed amount of
// simulated work; a run repeats a batch of episodes for as long as
// --seconds allows.
const (
	socialHorizon = 60 * sim.Second // firm-social: control ticks at 1 s
	socialRPS     = 250             // Fig. 10's open-loop rate
	genHorizon    = 3 * sim.Second  // gen-10k
	genSlices     = 30              // RunFor calls per gen-10k run
	genShards     = 2               // and as many window workers
	trainEpisodes = 1               // per experiments.Train call on train-fig11a

	// Independent instances per batch, each on its own seed: the host cost
	// of one instance depends on its seed's topology, traffic and
	// anomalies, so a batch averages several.
	socialEpisodes = 16
	genEpisodes    = 4
	transferSeeds  = 50 // Transferred runs after each One-for-All run
)

// gen10k is the gensweep experiment's top cell.
var gen10k = topology.Params{Services: 10000, Endpoints: 12, MaxFanout: 2, Depth: 8}

// workloadDef is one named workload. run executes one episode of it on
// it.seed, marking the end of set-up with it.startRun.
type workloadDef struct {
	name     string
	episodes int // per batch
	run      func(it *iter) error
	// alt, when set, runs the first episode once more after the timed
	// batches in a configuration that must not change its fingerprint.
	alt     func(it *iter) error
	altName string
}

func workloads() []workloadDef {
	return []workloadDef{
		{name: "firm-social", episodes: socialEpisodes, run: func(it *iter) error { return firmSocial(it, socialHorizon) }},
		{
			name:     "gen-10k",
			episodes: genEpisodes,
			run:      func(it *iter) error { return genSharded(it, gen10k, genHorizon, genShards, genShards) },
			alt:      func(it *iter) error { return genSharded(it, gen10k, genHorizon, 1, 1) },
			altName:  "1 shard",
		},
		{name: "train-fig11a", episodes: 1 + transferSeeds, run: trainFig11a(trainEpisodes)},
	}
}

// conserve records an episode's request counters and checks request
// conservation: no request finishes twice and none appears from nowhere.
// The remainder is still in flight at the horizon.
func conserve(it *iter, submitted, completed, dropped uint64) error {
	it.count("workload.submitted", float64(submitted))
	it.count("app.completed", float64(completed))
	it.count("app.dropped", float64(dropped))
	if completed+dropped > submitted {
		return fmt.Errorf("conservation: completed %d + dropped %d > submitted %d", completed, dropped, submitted)
	}
	it.count("app.in_flight", float64(submitted-completed-dropped))
	return nil
}

// cpuLimitCores sums the CPU limits of every container at the horizon.
func cpuLimitCores(clusters ...*cluster.Cluster) float64 {
	var sum float64
	for _, cl := range clusters {
		for _, rs := range cl.ReplicaSets() {
			for _, ct := range rs.Containers() {
				sum += ct.Limits()[cluster.CPU]
			}
		}
	}
	return sum
}

// firmSocial is the paper's control loop: Social Network on the 15-node
// cluster with SLO calibration, 250 rps open loop and the default anomaly
// campaign, under a fresh single-agent FIRM controller that acts and
// trains online. The benchmark drives the loop itself (run one interval,
// then tick) so ticks and training steps can be timed apart from the
// simulation; transitions reach the agent through core.Config.Sink, which
// does what the controller's own flush does with Training on.
func firmSocial(it *iter, horizon sim.Time) error {
	rec := it.rec
	sp := rec.Begin("topology.build")
	spec := topology.SocialNetwork()
	rec.End(sp)

	sp = rec.Begin("harness.new")
	b, err := harness.New(harness.Options{Seed: it.seed, Spec: spec})
	rec.End(sp)
	if err != nil {
		return err
	}
	sp = rec.Begin("app.calibrate")
	b.App.Calibrate(20, 1.6)
	rec.End(sp)

	sp = rec.Begin("detect.pretrain")
	ext := harness.NewExtractor(it.seed)
	rec.End(sp)

	sp = rec.Begin("rl.new")
	prov := harness.SharedAgent(it.seed)
	rec.End(sp)

	sp = rec.Begin("workload.attach")
	gen := b.AttachWorkload(workload.Constant{RPS: socialRPS})
	rec.End(sp)

	var trainSteps uint64
	cfg := core.DefaultConfig()
	cfg.Training = true
	cfg.IdleReclaim = 3
	cfg.ReclaimFactor = 0.9
	cfg.Sink = func(service string, t rl.Transition) {
		sp := rec.Begin("rl.train")
		ag := prov.AgentFor(service)
		ag.Observe(t)
		if _, ok := ag.TrainStep(); ok {
			trainSteps++
		}
		rec.End(sp)
	}
	sp = rec.Begin("core.new")
	ctl := b.AttachFIRM(cfg, prov, ext)
	ctl.Stop() // ticks are driven below
	rec.End(sp)

	sp = rec.Begin("injector.campaign")
	camp := injector.DefaultCampaign(b.Injector, b.Containers())
	camp.Start()
	rec.End(sp)

	// Calibration traffic is set-up; count only the run's requests.
	completed0, dropped0, violations0 := b.App.Completed, b.App.Dropped, b.App.Violations
	events0, stored0 := b.Eng.Steps(), b.DB.Total()
	since := b.Eng.Now()

	it.startRun()
	for at := sim.Time(0); at < horizon; at += cfg.Interval {
		sp := rec.Begin("sim.run")
		b.Eng.RunFor(cfg.Interval)
		rec.End(sp)
		sp = rec.Begin("core.tick")
		ctl.TickNow()
		rec.End(sp)
	}
	camp.Stop()
	sp = rec.Begin("tracedb.latencies")
	lats := b.DB.Latencies(tracedb.Query{Since: since})
	rec.End(sp)

	if err := conserve(it, gen.Submitted, b.App.Completed-completed0, b.App.Dropped-dropped0); err != nil {
		return err
	}
	it.count("app.violations", float64(b.App.Violations-violations0))
	it.gauge("app.p99_ms", pct(lats, 99))
	it.gauge("cluster.cpu_limit_cores", cpuLimitCores(b.Cluster))
	it.count("sim.events", float64(b.Eng.Steps()-events0))
	it.count("core.ticks", float64(ctl.Ticks))
	it.count("core.actions", float64(ctl.Actions))
	it.count("rl.train_steps", float64(trainSteps))
	it.count("tracedb.stored", float64(b.DB.Total()-stored0))
	it.count("tracedb.evicted", float64(b.DB.Total()-uint64(b.DB.Len())))
	return nil
}

// genPattern is the gensweep composite traffic rebuilt from public
// workload types: a diurnal base, a flash crowd a third of the way in, and
// a seeded per-user session stream.
func genPattern(dur sim.Time, seed int64) (workload.Pattern, error) {
	sessions, err := workload.NewSessions(
		workload.Diurnal{Base: 1.5, Amplitude: 0.5, Period: dur},
		3, dur/8, dur, seed,
	)
	if err != nil {
		return nil, err
	}
	return workload.Sum{
		workload.Diurnal{Base: 60, Amplitude: 20, Period: dur},
		workload.FlashCrowd{
			Base: workload.Constant{}, Peak: 120,
			Start: dur / 3, RampUp: dur / 20, Hold: dur / 6, Decay: dur / 10,
		},
		workload.Scaled{P: sessions, K: 1},
	}, nil
}

// genSharded is the raw request path at scale: a generated topology on the
// sharded engine under composite traffic, with no controller and no
// tracing pipeline. Latencies arrive through the app's result hook.
func genSharded(it *iter, p topology.Params, dur sim.Time, shards, workers int) error {
	rec := it.rec
	sp := rec.Begin("topology.build")
	spec, err := topology.Generate(p, it.seed)
	rec.End(sp)
	if err != nil {
		return err
	}
	sp = rec.Begin("workload.pattern")
	pattern, err := genPattern(dur, it.seed)
	rec.End(sp)
	if err != nil {
		return err
	}
	sp = rec.Begin("harness.new")
	b, err := harness.NewSharded(harness.ShardedOptions{Seed: it.seed, Spec: spec, Shards: shards})
	rec.End(sp)
	if err != nil {
		return err
	}
	var lats []float64
	b.App.SetResultHook(func(r app.Result) {
		if !r.Dropped {
			lats = append(lats, r.Latency.Millis())
		}
	})
	sp = rec.Begin("workload.attach")
	gen := b.AttachWorkload(pattern)
	rec.End(sp)
	b.Eng.SetWorkers(workers)

	it.startRun()
	slice := dur / genSlices
	for at := sim.Time(0); at < dur; at += slice {
		sp := rec.Begin("sim.run")
		b.Eng.RunFor(min(slice, dur-at))
		rec.End(sp)
	}

	if err := conserve(it, gen.Submitted, b.App.Completed, b.App.Dropped); err != nil {
		return err
	}
	it.count("app.violations", float64(b.App.Violations))
	it.gauge("app.p99_ms", pct(lats, 99))
	it.gauge("cluster.cpu_limit_cores", cpuLimitCores(b.Clusters...))
	it.count("sim.events", float64(b.Eng.Steps()))
	return nil
}

// trainFig11a returns the train-fig11a episode: Fig. 11(a)'s training
// campaigns on Train-Ticket with one rollout worker. A batch's first
// episode trains the One-for-All agent; every later episode trains
// Transferred agents from it on its own seed. One-for-All's cost is one
// fixed behaviour-cloning pretrain; the many Transferred episodes average
// out how much the simulated episodes differ from seed to seed.
// experiments.Train builds its own testbed per episode and exposes no hook
// at its first event, so set-up here is the Train-Ticket spec build plus
// one testbed build with the calibration every training episode repeats.
func trainFig11a(episodes int) func(it *iter) error {
	var base *rl.Agent // the batch's One-for-All agent
	return func(it *iter) error {
		rec := it.rec
		sp := rec.Begin("topology.build")
		spec := topology.TrainTicket()
		rec.End(sp)

		sp = rec.Begin("harness.new")
		b, err := harness.New(harness.Options{Seed: it.seed, Spec: spec})
		rec.End(sp)
		if err != nil {
			return err
		}
		sp = rec.Begin("app.calibrate")
		b.App.Calibrate(6, 1.6)
		rec.End(sp)
		it.gauge("app.slo_ms", b.App.SLO.Millis())

		v := experiments.Transferred
		if len(it.eps) == 0 {
			v, base = experiments.OneForAll, nil
		}
		key := strings.ToLower(strings.ReplaceAll(v.String(), "-", "_"))
		it.startRun()
		sp = rec.Begin("experiments.train_" + key)
		res, err := experiments.Train(experiments.TrainOpts{
			Seed: it.seed, Spec: spec, Episodes: episodes, Variant: v,
			Base: base, RolloutWorkers: 1,
		})
		rec.End(sp)
		if err != nil {
			return fmt.Errorf("train %v: %w", v, err)
		}
		if len(res.Smoothed) != episodes {
			return fmt.Errorf("train %v: %d rewards for %d episodes", v, len(res.Smoothed), episodes)
		}
		if v == experiments.OneForAll {
			base = res.Provider.Agents()[0]
		}
		// Fig. 11(a)'s final reward: the mean of the smoothed curve's last
		// quarter.
		it.gauge("experiments.reward_"+key, stats.Mean(res.Smoothed[len(res.Smoothed)*3/4:]))
		rewards := make([]string, len(res.Rewards))
		for i, r := range res.Rewards {
			rewards[i] = strconv.FormatFloat(r, 'g', -1, 64)
		}
		it.fp.add("experiments.rewards_"+key, strings.Join(rewards, ","))
		return nil
	}
}
