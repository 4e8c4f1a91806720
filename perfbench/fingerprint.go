package main

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
)

// fingerprint is the ordered list of a run's deterministic outputs: the
// simulated model's counters, the event count and, for training, every
// episode reward, each rendered exactly. Two runs of one workload on one
// seed must produce equal fingerprints.
type fingerprint []fpItem

type fpItem struct{ name, value string }

func (f *fingerprint) add(name, value string) {
	*f = append(*f, fpItem{name, value})
}

func (f *fingerprint) addFloat(name string, v float64) {
	f.add(name, strconv.FormatFloat(v, 'f', -1, 64))
}

// String renders the fingerprint as name=value pairs in recording order.
func (f fingerprint) String() string {
	var b strings.Builder
	for i, it := range f {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(it.name)
		b.WriteByte('=')
		b.WriteString(it.value)
	}
	return b.String()
}

// Hash is a short digest of String for one-line comparison.
func (f fingerprint) Hash() string {
	h := fnv.New64a()
	h.Write([]byte(f.String()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// Diff describes the first difference between want and got, or returns ""
// when they are equal.
func Diff(want, got fingerprint) string {
	for i := 0; i < max(len(want), len(got)); i++ {
		switch {
		case i >= len(want):
			return fmt.Sprintf("extra %s=%s", got[i].name, got[i].value)
		case i >= len(got):
			return fmt.Sprintf("missing %s=%s", want[i].name, want[i].value)
		case want[i] != got[i]:
			return fmt.Sprintf("item %d: want %s=%s, got %s=%s", i, want[i].name, want[i].value, got[i].name, got[i].value)
		}
	}
	return ""
}
