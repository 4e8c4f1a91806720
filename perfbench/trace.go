package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Span is one timed call from the benchmark into a layer of the program.
// Name is "<layer>.<call>"; Parent is the index of the span that was open
// when this one began, or -1 for a root.
type Span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Batch  int    `json:"batch"`
}

// Recorder keeps spans in memory for the length of a run. A nil *Recorder
// records nothing, so the untraced path pays one nil check per call site.
// It is used from one goroutine only: every span wraps a call the
// benchmark makes itself.
type Recorder struct {
	origin time.Time
	batch  int
	spans  []Span
	open   []int
}

// NewRecorder starts a recorder whose span times are relative to now.
func NewRecorder() *Recorder { return &Recorder{origin: time.Now()} }

// Begin opens a span and returns its index for End.
func (r *Recorder) Begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, Span{Name: name, Parent: parent, Start: int64(time.Since(r.origin)), Batch: r.batch})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// End closes the span Begin returned. Spans close innermost first.
func (r *Recorder) End(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = int64(time.Since(r.origin))
	if n := len(r.open); n > 0 && r.open[n-1] == id {
		r.open = r.open[:n-1]
	}
}

// durations returns the length in seconds of every span named name whose
// batch is batch.
func (r *Recorder) durations(name string, batch int) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.Batch == batch {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// SelfTimes returns, for each span, its duration minus the part of its
// interval that its children cover. Children of one parent may overlap
// each other or run past the parent's end; the covered part is the union
// of their intervals clipped to the parent's.
func SelfTimes(spans []Span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if lo < hi {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = s.Start
		for _, v := range ivs {
			lo := max(v.lo, reach)
			if v.hi > lo {
				covered += v.hi - lo
				reach = v.hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// LayerSelf sums self time, in seconds, by layer (the name up to the first
// dot) over the spans of one batch.
func LayerSelf(spans []Span, batch int) map[string]float64 {
	self := SelfTimes(spans)
	out := map[string]float64{}
	for i, s := range spans {
		if s.Batch != batch {
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(self[i]) / 1e9
	}
	return out
}

// WriteFile writes every recorded span as one JSON array.
func (r *Recorder) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
