package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared: its speed changes by up to 2×
// over minutes, as neighbours compete for the physical cores, their caches
// and memory. A speedProbe is a fixed piece of work, owned by the
// benchmark and independent of the program, whose wall time follows that
// speed: an integer dependency chain that only the core's speed sets,
// dependent loads through a ring larger than a core's private caches, and
// an event heap with a map index built from small heap objects, the shape
// of a discrete-event simulator's inner loop. The three take about half,
// a third and a sixth of a probe, the mix whose time best followed the
// workloads' own over tens of minutes on a 2-vCPU virtual machine.
//
// The benchmark runs probesPerBatch probes spread between each batch's
// episodes and reports the batch's times scaled by refProbe over the mean
// probe time: seconds on a host where one probe takes refProbe. The
// program never runs during a probe, so a change to the program moves the
// scaled times as much as the raw ones.
const (
	refProbe        = 40 * time.Millisecond
	probesPerBatch  = 16
	probeALUSteps   = 1 << 24
	probeRingLen    = 1 << 23 // uint32 entries: a 32 MiB ring
	probeChaseSteps = 1 << 16
	probeEvents     = 1 << 14
)

type speedProbe struct {
	ring []uint32 // one random cycle through every index, outside the Go heap
	pos  uint32
	sink uint64
}

// newSpeedProbe maps the ring outside the Go heap, so it adds nothing to
// the heap the GC scans or to peak_heap_mb, and links it into one cycle.
func newSpeedProbe() (*speedProbe, error) {
	mem, err := syscall.Mmap(-1, 0, 4*probeRingLen, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("speed probe: %w", err)
	}
	ring := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), probeRingLen)
	for i := range ring {
		ring[i] = uint32(i)
	}
	// Sattolo's shuffle leaves a single cycle, so a chase never settles
	// into a short loop that fits in cache.
	r := rand.New(rand.NewSource(1))
	for i := len(ring) - 1; i > 0; i-- {
		j := r.Intn(i)
		ring[i], ring[j] = ring[j], ring[i]
	}
	return &speedProbe{ring: ring}, nil
}

type probeEvent struct {
	at   uint64
	id   uint64
	next *probeEvent
}

// threadCPU is the CPU time the calling thread has used. Like the
// process's CPU time it leaves out steal time, which elapsed subtracts
// from the program's wall time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// run does the probe's fixed work once, from a collected heap, and
// returns the CPU time it took. The chase continues where the last one
// stopped, so each run touches lines the previous runs did not.
func (p *speedProbe) run() time.Duration {
	runtime.GC()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	a := p.sink
	for range probeALUSteps {
		a = a*6364136223846793005 + 1442695040888963407
	}

	x := p.pos
	for range probeChaseSteps {
		x = p.ring[x]
	}
	p.pos = x

	h := make([]*probeEvent, 0, probeEvents)
	idx := make(map[uint64]*probeEvent, probeEvents/4)
	var prev *probeEvent
	s := uint64(0x9e3779b97f4a7c15)
	for i := range probeEvents {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		e := &probeEvent{at: s >> 20, id: uint64(i), next: prev}
		prev = e
		idx[e.id] = e
		h = append(h, e)
		for c := len(h) - 1; c > 0; {
			q := (c - 1) / 2
			if h[q].at <= h[c].at {
				break
			}
			h[q], h[c] = h[c], h[q]
			c = q
		}
	}
	var sum uint64
	for len(h) > 0 {
		e := h[0]
		sum += e.at
		delete(idx, e.id)
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		for c := 0; ; {
			l, m := 2*c+1, c
			if l < n && h[l].at < h[m].at {
				m = l
			}
			if l+1 < n && h[l+1].at < h[m].at {
				m = l + 1
			}
			if m == c {
				break
			}
			h[c], h[m] = h[m], h[c]
			c = m
		}
	}
	p.sink = a + sum + uint64(len(idx)) + uint64(x)
	return threadCPU() - start
}
