package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/store"
)

// span is one timed interval at a layer boundary. Parent is the id of
// the span that caused it (0 for a root); Req groups the spans of one
// request: a grid repetition, a daemon job's content key, a scrape.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // filled in by selfTimes
}

// tracer keeps spans in memory for the length of a run. A nil *tracer
// records nothing, which is how untraced runs and untraced repetitions
// of a traced run call the same code. on gates recording for the
// untraced windows of a traced run.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	on     bool
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) setOn(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

func (t *tracer) enabled() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.on
}

// begin opens a span and returns its id; end closes it. begin returns 0
// (no span) when the tracer is nil or off.
func (t *tracer) begin(name, req string, parent int, start time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.origin).Nanoseconds(), End: -1})
	return id
}

func (t *tracer) end(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = end.Sub(t.origin).Nanoseconds()
	t.mu.Unlock()
}

// record adds a closed span.
func (t *tracer) record(name, req string, parent int, start, end time.Time) int {
	id := t.begin(name, req, parent, start)
	t.end(id, end)
	return id
}

// adopt makes every root span named child a child of the span named
// parent that shares its request id and contains it in time. It links
// spans recorded where the caller is unknown, such as store calls made
// inside the server, to the client request that caused them.
func (t *tracer) adopt(child string, parents ...string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	byReq := map[string][]int{}
	for i, s := range t.spans {
		for _, p := range parents {
			if s.Name == p {
				byReq[s.Req] = append(byReq[s.Req], i)
			}
		}
	}
	for i := range t.spans {
		c := &t.spans[i]
		if c.Name != child || c.Parent != 0 {
			continue
		}
		for _, pi := range byReq[c.Req] {
			if p := t.spans[pi]; p.Start <= c.Start && c.End <= p.End {
				c.Parent = p.ID
				break
			}
		}
	}
}

// selfTimes fills each span's self time — its duration minus the part
// of its interval covered by its children — and returns the total self
// time in milliseconds and the span count per span name.
func (t *tracer) selfTimes() (selfMs map[string]float64, count map[string]int) {
	selfMs, count = map[string]float64{}, map[string]int{}
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.End < 0 {
			continue
		}
		s.Self = s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
		selfMs[s.Name] += float64(s.Self) / 1e6
		count[s.Name]++
	}
	return
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := [2]int64{-1, -1}
	for _, x := range iv {
		x[0], x[1] = max(x[0], lo), min(x[1], hi)
		if x[1] <= x[0] {
			continue
		}
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
		} else if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

// timedStore decorates a store.Store, recording a span around every Get
// and Put and counting failed Puts. The server owns the store and calls
// it from its own goroutines, so the request id is the content key the
// server stores under; adopt links the spans to the client's request.
type timedStore struct {
	store.Store
	tr *tracer

	mu          sync.Mutex
	getMs       []float64
	putMs       []float64
	putFailures int
}

func (s *timedStore) Get(key string) ([]byte, error) {
	t0 := time.Now()
	b, err := s.Store.Get(key)
	t1 := time.Now()
	if s.tr.record("store", key, 0, t0, t1) != 0 {
		s.mu.Lock()
		s.getMs = append(s.getMs, ms(t1.Sub(t0)))
		s.mu.Unlock()
	}
	return b, err
}

func (s *timedStore) Put(key string, payload []byte) error {
	t0 := time.Now()
	err := s.Store.Put(key, payload)
	t1 := time.Now()
	traced := s.tr.record("store", key, 0, t0, t1) != 0
	s.mu.Lock()
	if traced {
		s.putMs = append(s.putMs, ms(t1.Sub(t0)))
	}
	if err != nil {
		s.putFailures++
	}
	s.mu.Unlock()
	return err
}
