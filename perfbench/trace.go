package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// maxSpans caps the spans a traced run keeps for its span file. Spans
// past the cap still count toward the per-layer totals.
const maxSpans = 200_000

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the run's epoch; all ranks share the process clock.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span in the file, -1 for none
	ID     int64  `json:"id"`     // job, round or tile id
	Rank   int    `json:"rank"`
}

// recorder keeps a traced run's spans in memory and writes them out at
// the end. Besides the spans it keeps, per span name, the total time and
// the time covered by child spans, from which a layer's self time
// follows. A nil *recorder records nothing: untraced runs pass nil.
type recorder struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	dropped int
	total   map[string]time.Duration
	count   map[string]int64
	covered map[string]time.Duration // by parent name

	// job is the open span of the job in progress; the orchestrator
	// sets it between jobs, and jobs parent their spans on it.
	job *spanRef
}

func newRecorder() *recorder {
	return &recorder{
		epoch:   time.Now(),
		total:   map[string]time.Duration{},
		count:   map[string]int64{},
		covered: map[string]time.Duration{},
	}
}

// now returns the recorder's clock; 0 on a nil recorder.
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// jobSpan returns the open job span (nil on a nil recorder).
func (r *recorder) jobSpan() *spanRef {
	if r == nil {
		return nil
	}
	return r.job
}

// ns converts a wall-clock reading to the recorder's clock.
func (r *recorder) ns(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// spanRef is an open span.
type spanRef struct {
	idx        int // index in the span file, -1 past the cap
	name       string
	rank       int
	parentName string // "" unless the parent ran on the same rank
	start      int64
}

// begin opens a span under parent (nil for a top-level span). The
// span's duration counts once end closes it.
func (r *recorder) begin(name string, parent *spanRef, rank int, id, start int64) spanRef {
	if r == nil {
		return spanRef{idx: -1}
	}
	s := spanRef{idx: -1, name: name, rank: rank, start: start}
	p := -1
	if parent != nil {
		p = parent.idx
		// Self time subtracts only children on the parent's own rank;
		// the ranks' spans under a job span run in parallel.
		if parent.rank == rank {
			s.parentName = parent.name
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) < maxSpans {
		s.idx = len(r.spans)
		r.spans = append(r.spans, span{Name: name, Start: start, Parent: p, ID: id, Rank: rank})
	} else {
		r.dropped++
	}
	return s
}

// end closes s at time end.
func (r *recorder) end(s spanRef, end int64) {
	if r == nil {
		return
	}
	d := time.Duration(end - s.start)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.idx >= 0 {
		r.spans[s.idx].End = end
	}
	r.total[s.name] += d
	r.count[s.name]++
	if s.parentName != "" {
		r.covered[s.parentName] += d
	}
}

// add records a span whose end is already known.
func (r *recorder) add(name string, parent *spanRef, rank int, id, start, end int64) {
	r.end(r.begin(name, parent, rank, id, start), end)
}

// aggregate counts n spans under parent, on the parent's rank, with
// total duration d that were too frequent to keep one by one (UTS task
// handlers).
func (r *recorder) aggregate(name string, parent *spanRef, n int64, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total[name] += d
	r.count[name] += n
	if parent != nil {
		r.covered[parent.name] += d
	}
}

// selfTimes reports, per span name, its count, total and self time
// (total minus the time its children cover), sorted by name.
func (r *recorder) selfTimes() []selfTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]selfTime, 0, len(r.total))
	for name, tot := range r.total {
		out = append(out, selfTime{name: name, count: r.count[name], total: tot, self: tot - r.covered[name]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

type selfTime struct {
	name        string
	count       int64
	total, self time.Duration
}

// writeFile writes the kept spans as JSON lines to path.
func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := r.writeSpans(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (r *recorder) writeSpans(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			return err
		}
	}
	if r.dropped > 0 {
		_, err := fmt.Fprintf(w, "{\"dropped\": %d}\n", r.dropped)
		return err
	}
	return nil
}

// samples is a set of latency observations in microseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/1e3) }

// quantile returns the q-quantile by linear interpolation between the
// closest ranks (0 for an empty set).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	xs := append([]float64(nil), s...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func (s samples) median() float64 { return s.quantile(0.5) }
