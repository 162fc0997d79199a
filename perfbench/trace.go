package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"meetpoly/internal/campaign"
)

// span is one timed call from the benchmark into a layer. Times are
// nanoseconds since the tracer started; Parent is the parent span's id
// plus one (0 for a root); Req joins every span of one request.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
}

// tracer keeps spans in memory for the whole run; nothing inside the
// program is instrumented, every span wraps a public call made here.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	reqs  int32
}

// requests allocates the ids of one request pair: an odd id for the
// first request and the next one for the repeat.
func (t *tracer) requests() int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs += 2
	return t.reqs - 1
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// open starts a span whose children are recorded before it ends and
// returns its id; close ends it.
func (t *tracer) open(name string, parent, req int32) int32 {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, Parent: parent, Req: req})
	return int32(len(t.spans))
}

func (t *tracer) close(id int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(name string, start, end int64, parent, req int32) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Req: req})
	t.mu.Unlock()
}

// write dumps every span as NDJSON.
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
	return f.Close()
}

// spanStats is the per-name roll-up of a set of spans.
type spanStats struct {
	total int64 // summed duration
	self  int64 // summed duration minus the part covered by children
}

// rollup computes each span name's total time and self time. A span's
// self time is its duration minus the union of its children's intervals
// (clipped to it), so children that overlap each other are not
// subtracted twice. Span names start with their layer (engine, campaign,
// serve, client, coord, and bench for the benchmark's own glue).
func (t *tracer) rollup() map[string]*spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]*spanStats)
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.total += d
		st.self += d - covered(kids[int32(i+1)], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := [2]int64{-1, -1}
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > cur[1] {
			if cur[1] > cur[0] {
				total += cur[1] - cur[0]
			}
			cur = [2]int64{a, b}
		} else if b > cur[1] {
			cur[1] = b
		}
	}
	if cur[1] > cur[0] {
		total += cur[1] - cur[0]
	}
	return total
}

// timedOracle wraps one oracle of the default suite so every Check is
// a span under the current sweep.
type timedOracle struct {
	inner  campaign.Oracle
	name   string
	tr     *tracer
	parent int32
	req    int32
}

func (o timedOracle) Name() string { return o.inner.Name() }

func (o timedOracle) Check(c campaign.Cell, out campaign.Outcome) error {
	start := o.tr.now()
	err := o.inner.Check(c, out)
	o.tr.add(o.name, start, o.tr.now(), o.parent, o.req)
	return err
}

func timedOracles(suite []campaign.Oracle, tr *tracer, parent, req int32) []campaign.Oracle {
	out := make([]campaign.Oracle, len(suite))
	for i, o := range suite {
		out[i] = timedOracle{inner: o, name: "campaign.judge." + o.Name(), tr: tr, parent: parent, req: req}
	}
	return out
}
