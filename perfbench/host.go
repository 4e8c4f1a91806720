package main

import (
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"firm/internal/stats"
)

// hostSnap is a reading of the process's own counters: wall clock, CPU
// time charged by the kernel, and the Go runtime's allocation and GC
// totals, with the machine's steal time. The difference of two readings
// measures the work between them.
type hostSnap struct {
	wall     time.Time
	steal    float64 // seconds the hypervisor ran other guests on one CPU, averaged over the CPUs
	cpu      float64 // user+sys seconds
	allocs   uint64  // heap objects allocated
	bytes    uint64  // heap bytes allocated
	gcCycles uint64
	gcCPU    float64 // estimated GC CPU seconds
}

var snapNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readHost() hostSnap {
	s := make([]metrics.Sample, len(snapNames))
	for i, n := range snapNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return hostSnap{
		wall:     time.Now(),
		steal:    readSteal(),
		cpu:      tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		allocs:   s[0].Value.Uint64(),
		bytes:    s[1].Value.Uint64(),
		gcCycles: s[2].Value.Uint64(),
		gcCPU:    s[3].Value.Float64(),
	}
}

// elapsed is the wall time from a to b less the steal time between them:
// a virtual CPU the hypervisor hands to another guest stops the program
// without charging it CPU time, and how often that happens depends on the
// neighbours, not on the program.
func elapsed(a, b hostSnap) float64 {
	return b.wall.Sub(a.wall).Seconds() - (b.steal - a.steal)
}

// readSteal reads the steal time of the whole machine from /proc/stat, in
// seconds per CPU, or 0 where there is none to read.
func readSteal() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var steal float64
	cpus := 0
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		// cpuN user nice system idle iowait irq softirq steal ..., in
		// clock ticks of 1/100 s.
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" {
			continue
		}
		v, err := strconv.ParseFloat(f[8], 64)
		if err != nil {
			return 0
		}
		steal += v / 100
		cpus++
	}
	if cpus == 0 {
		return 0
	}
	return steal / float64(cpus)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// heapPeak samples the live heap (bytes the last GC marked reachable) every
// period on its own goroutine and keeps the largest value seen.
type heapPeak struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64 // written by the sampler, read after wg.Wait
}

func startHeapPeak(period time.Duration) *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in bytes.
func (h *heapPeak) Stop() uint64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak
}

// pct is the p-th percentile of xs by stats.Percentile, or 0 when there
// are none: a layer a workload never reaches reports 0.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, p)
}
