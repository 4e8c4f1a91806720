// Package firm_test hosts the benchmark harness: one testing.B benchmark
// per table and figure of the paper's evaluation, each regenerating the
// artifact at quick scale and reporting its headline metric, plus the
// internal/perf tick-path microbenchmarks (also runnable as `firmbench
// -bench`, which records them as a canonical BENCH_*.json). Run with:
//
//	go test -bench=. -benchmem
//
// For full-scale runs use the CLI: go run ./cmd/firmbench -run all -scale full
package firm_test

import (
	"testing"

	"firm/internal/experiments"
	"firm/internal/perf"
)

const benchSeed = 42

// benchOnce runs fn exactly once per benchmark invocation (each experiment
// is a complete multi-minute simulated campaign; b.N repetitions of the
// whole campaign are meaningless, so the loop reuses the first result).
// Allocation stats are always reported: the campaign-level allocs/op and
// bytes/op trajectories are what the tick-path optimizations move.
func benchOnce(b *testing.B, fn func() error) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i > 0 {
			break
		}
		if err := fn(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1(b *testing.B) {
	benchOnce(b, func() error {
		r, err := experiments.Fig1(experiments.QuickScale(), benchSeed)
		if err != nil {
			return err
		}
		b.ReportMetric(r.PeakNoFIRM/r.PeakFIRM, "peak-p99-improvement-x")
		return nil
	})
}

func BenchmarkTable1(b *testing.B) {
	benchOnce(b, func() error {
		r, err := experiments.Table1(experiments.QuickScale(), benchSeed)
		if err != nil {
			return err
		}
		b.ReportMetric(r.Totals["video"], "video-injection-total-ms")
		return nil
	})
}

func BenchmarkFig3(b *testing.B) {
	benchOnce(b, func() error {
		r, err := experiments.Fig3(experiments.QuickScale(), benchSeed)
		if err != nil {
			return err
		}
		var sum float64
		for _, row := range r.Rows {
			sum += row.P99Ratio
		}
		b.ReportMetric(sum/float64(len(r.Rows)), "avg-maxmin-cp-p99-ratio")
		return nil
	})
}

func BenchmarkFig4(b *testing.B) {
	benchOnce(b, func() error {
		r, err := experiments.Fig4(experiments.QuickScale(), benchSeed)
		if err != nil {
			return err
		}
		b.ReportMetric(100*(1-r.ScaleTextP99/r.BeforeP99), "variance-scaling-gain-pct")
		return nil
	})
}

func BenchmarkFig5(b *testing.B) {
	benchOnce(b, func() error {
		r, err := experiments.Fig5(experiments.QuickScale(), benchSeed)
		if err != nil {
			return err
		}
		upWins := 0
		for _, row := range r.Rows {
			if row.Winner == "scale-up" {
				upWins++
			}
		}
		b.ReportMetric(float64(upWins), "scale-up-wins")
		b.ReportMetric(float64(len(r.Rows)), "sweep-points")
		return nil
	})
}

func BenchmarkFig9a(b *testing.B) {
	benchOnce(b, func() error {
		r, err := experiments.Fig9a(experiments.QuickScale(), benchSeed)
		if err != nil {
			return err
		}
		b.ReportMetric(r.AvgAUC, "avg-AUC")
		return nil
	})
}

func BenchmarkFig9b(b *testing.B) {
	benchOnce(b, func() error {
		r, err := experiments.Fig9b(experiments.QuickScale(), benchSeed)
		if err != nil {
			return err
		}
		b.ReportMetric(100*r.Overall, "localization-accuracy-pct")
		return nil
	})
}

func BenchmarkFig10(b *testing.B) {
	benchOnce(b, func() error {
		r, err := experiments.Fig10(experiments.QuickScale(), benchSeed)
		if err != nil {
			return err
		}
		b.ReportMetric(r.TailLatencyVsAIMD, "tail-vs-AIMD-x")
		b.ReportMetric(r.TailLatencyVsHPA, "tail-vs-K8s-x")
		return nil
	})
}

func BenchmarkFig11a(b *testing.B) {
	benchOnce(b, func() error {
		r, err := experiments.Fig11a(experiments.QuickScale(), benchSeed)
		if err != nil {
			return err
		}
		b.ReportMetric(r.FinalReward["Transferred"], "transferred-final-reward")
		b.ReportMetric(r.FinalReward["One-for-All"], "one-for-all-final-reward")
		return nil
	})
}

func BenchmarkFig11b(b *testing.B) {
	benchOnce(b, func() error {
		r, err := experiments.Fig11b(experiments.QuickScale(), benchSeed)
		if err != nil {
			return err
		}
		b.ReportMetric(r.FinalSingleRL, "firm-mitigation-s")
		b.ReportMetric(r.HPABaseline, "k8s-mitigation-s")
		b.ReportMetric(r.AIMDBaseline, "aimd-mitigation-s")
		return nil
	})
}

func BenchmarkTable6(b *testing.B) {
	benchOnce(b, func() error {
		r, err := experiments.Table6(experiments.QuickScale(), benchSeed)
		if err != nil {
			return err
		}
		b.ReportMetric(r.Mean["cpu"], "cpu-partition-ms")
		b.ReportMetric(r.Mean["cold-start"], "cold-start-ms")
		return nil
	})
}

// The tick-path microbenchmarks from internal/perf, re-exported here so
// `go test -bench . -benchmem` covers them alongside the campaign
// benchmarks. `firmbench -bench` runs the same functions and records them
// as BENCH_*.json; CI gates on the core-tick allocs/op budget.

func BenchmarkCoreTick(b *testing.B)            { perf.CoreTick(b) }
func BenchmarkCoreTickNaive(b *testing.B)       { perf.CoreTickNaive(b) }
func BenchmarkStatsWindow(b *testing.B)         { perf.StatsWindow(b) }
func BenchmarkTracedbSelect(b *testing.B)       { perf.TracedbSelect(b) }
func BenchmarkTelemetryAdd(b *testing.B)        { perf.TelemetryAdd(b) }
func BenchmarkNNForwardBatch(b *testing.B)      { perf.NNForwardBatch(b) }
func BenchmarkRLTrainStepBatched(b *testing.B)  { perf.RLTrainStepBatched(b) }
func BenchmarkRLTrainStepSeq(b *testing.B)      { perf.RLTrainStepSeq(b) }
func BenchmarkDetectFeatures(b *testing.B)      { perf.DetectFeatures(b) }
func BenchmarkRolloutRoundOverlap(b *testing.B) { perf.RolloutRoundOverlap(b) }
func BenchmarkTopologyGenerate(b *testing.B)    { perf.TopologyGenerate(b) }
func BenchmarkTopologyGenerate10k(b *testing.B) { perf.TopologyGenerate10k(b) }
func BenchmarkWorkloadArrivals(b *testing.B)    { perf.WorkloadArrivals(b) }
func BenchmarkEngineEvent(b *testing.B)         { perf.EngineEvent(b) }
func BenchmarkContainerDispatch(b *testing.B)   { perf.ContainerDispatch(b) }
func BenchmarkReplicaPick(b *testing.B)         { perf.ReplicaPick(b) }
func BenchmarkAppHop(b *testing.B)              { perf.AppHop(b) }
func BenchmarkRequestE2E(b *testing.B)          { perf.RequestE2E(b) }
func BenchmarkShardStep(b *testing.B)           { perf.ShardStep(b) }
func BenchmarkScenarioStep(b *testing.B)        { perf.ScenarioStep(b) }
