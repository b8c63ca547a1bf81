package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Parent is the ID of the span whose call caused this one (0 for a
// root). Tag carries a per-span attribute: the request ID shared by a
// client submit span and its web.handler span, or "dp"/"greedy" on a
// core.schedule span.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Tag    string        `json:"tag,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps every span of a traced run in memory; write dumps them
// when the run ends. A nil *recorder is the untraced run: nothing is
// wrapped, so nothing calls it.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	next  int
}

// now is the benchmark's only wall-clock read. Timings feed spans and
// metrics only; none is ever handed to the engine, so none can reach a
// schedule digest.
func now() time.Time {
	//lint:ignore digesttaint timings feed only the benchmark's spans and metrics, never an engine input
	return time.Now()
}

func newRecorder() *recorder { return &recorder{epoch: now()} }

// reserve hands out a span ID before the span's own call starts, so
// child spans recorded during the call can name their parent.
func (r *recorder) reserve() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records a finished span under a reserved ID (id 0 reserves one).
func (r *recorder) add(id, parent int, name string, start, end time.Time, tag string) {
	if id == 0 {
		id = r.reserve()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch), Tag: tag})
}

// named returns the spans with the given name, in recording order.
func (r *recorder) named(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfTime sums, over the spans with the given name, each span's
// duration minus the part of it that its child spans cover.
func (r *recorder) selfTime(name string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var self time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			self += s.dur() - covered(s, children[s.ID])
		}
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	curStart, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi <= lo {
			continue
		}
		if lo > curEnd {
			total += curEnd - curStart
			curStart, curEnd = lo, hi
		} else if hi > curEnd {
			curEnd = hi
		}
	}
	return total + curEnd - curStart
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

func durations(spans []span) []time.Duration {
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur()
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// quantile returns the q-quantile (0..1) of xs by the nearest-rank
// method, or 0 for an empty sample. xs is not modified.
func quantile[T time.Duration | float64](xs []T, q float64) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// segmentMedian takes the q-quantile of each segment of a run (a trace,
// a rate step) and returns their median, so a burst of host noise
// during one segment moves one sample rather than the result.
func segmentMedian(segs [][]time.Duration, q float64) time.Duration {
	per := make([]time.Duration, len(segs))
	for i, s := range segs {
		per[i] = quantile(s, q)
	}
	return quantile(per, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
