package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary.  Calls > 1 marks a
// batch span: a replay loop of that many calls into the layer.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Calls  int64  `json:"calls,omitempty"`
}

// maxSpans bounds the in-memory span buffer; later spans are counted but
// not kept, so a long traced run cannot grow without bound.
const maxSpans = 1 << 18

// tracer keeps the traced run's spans in memory until the run ends.  A
// nil tracer records nothing, which is how untraced runs use the same
// code paths.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	next    int64
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record stores a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) record(parent int64, name string, start time.Time, dur time.Duration, calls int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	if len(t.spans) >= maxSpans {
		t.dropped++
		return t.next
	}
	t.spans = append(t.spans, span{
		ID: t.next, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), Dur: dur.Nanoseconds(), Calls: calls,
	})
	return t.next
}

// writeSpans writes the buffered spans as JSON lines, the last line
// counting any spans dropped past the buffer bound.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	err = enc.Encode(map[string]int64{"dropped_spans": t.dropped})
	t.mu.Unlock()
	if err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// clockCost is the measured cost of the clock reads a timed call adds:
// read is one time.Now, and empty is what time.Since reports for an
// empty interval.  Per-call timings subtract empty; a decorator nested
// inside another adds about two reads to the outer span.
type clockCost struct {
	read, empty float64 // ns
}

func calibrateClock() clockCost {
	const n = 200_000
	var reads, empties []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			_ = time.Now()
		}
		reads = append(reads, float64(time.Since(t0).Nanoseconds())/n)
		var sum int64
		for i := 0; i < n; i++ {
			s := time.Now()
			sum += time.Since(s).Nanoseconds()
		}
		empties = append(empties, float64(sum)/n)
	}
	return clockCost{read: median(reads), empty: median(empties)}
}
