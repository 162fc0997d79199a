package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one key="value" pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// L builds a Label; it exists so call sites stay short:
//
//	r.Counter("cells_total", "…", telemetry.L("kind", kind))
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind distinguishes the metric families a Registry can hold.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// series is one (name, labels) time series inside a family. Exactly
// one of the value fields is set, matching the family's kind; cf/gf
// are the callback-backed variants that read external state (e.g. the
// engine's packed cache-stats word) at snapshot time.
type series struct {
	labels   []Label // sorted by key
	rendered string  // `{k="v",…}` or "" — the series map key
	c        *Counter
	g        *Gauge
	h        *Histogram
	cf       func() uint64
	gf       func() int64
}

// family groups every series sharing a metric name; they must agree on
// kind and help (the exposition format emits one HELP/TYPE per name).
type family struct {
	name   string
	kind   Kind
	help   string
	series map[string]*series
}

// Registry is a named-metric registry. Handle lookup (Counter, Gauge,
// Histogram, …) takes a mutex and may allocate, so callers hold the
// returned handle and record through it; the handles themselves are
// lock-free. The same (name, labels) always yields the same handle.
// A Registry is safe for concurrent use; the zero value is not — use
// NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup finds or creates the (name, labels) series of the given kind,
// panicking on a kind or help conflict — that is a programming error
// (two call sites disagreeing about what a name means), not a runtime
// condition.
func (r *Registry) lookup(kind Kind, name, help string, labels []Label) *series {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	rendered := renderLabels(ls)

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, kind: kind, help: help, series: make(map[string]*series)}
		r.families[name] = f
	} else {
		if f.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q redeclared as %s (was %s)", name, kind, f.kind))
		}
		if f.help != help {
			panic(fmt.Sprintf("telemetry: metric %q redeclared with different help", name))
		}
	}
	s := f.series[rendered]
	if s == nil {
		s = &series{labels: ls, rendered: rendered}
		switch kind {
		case KindCounter:
			s.c = new(Counter)
		case KindGauge:
			s.g = new(Gauge)
		case KindHistogram:
			s.h = new(Histogram)
		}
		f.series[rendered] = s
	}
	return s
}

// Counter returns the counter series (name, labels), creating it on
// first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(KindCounter, name, help, labels).c
}

// Gauge returns the gauge series (name, labels), creating it on first
// use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(KindGauge, name, help, labels).g
}

// Histogram returns the histogram series (name, labels), creating it
// on first use.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	return r.lookup(KindHistogram, name, help, labels).h
}

// CounterFunc declares a counter series whose value is read from fn
// at snapshot time instead of being accumulated here — for sources
// that already keep their own atomic tally (the engine's packed
// cache-stats word). fn must be safe for concurrent use and should
// return a monotonically non-decreasing value. Redeclaring the same
// series replaces the callback.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	s := r.lookup(KindCounter, name, help, labels)
	r.mu.Lock()
	s.cf = fn
	r.mu.Unlock()
}

// GaugeFunc declares a gauge series whose value is read from fn at
// snapshot time. fn must be safe for concurrent use; it must not call
// back into this registry (Snapshot holds the registry lock while
// collecting). Redeclaring the same series replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	s := r.lookup(KindGauge, name, help, labels)
	r.mu.Lock()
	s.gf = fn
	r.mu.Unlock()
}

// Point is one series in a snapshot: an immutable copy of its value
// at collection time. Counter points set Value to the count; gauge
// points set Value to the level; histogram points set Count, Sum and
// the per-bucket (non-cumulative) Buckets instead.
type Point struct {
	Name    string
	Labels  []Label
	Kind    Kind
	Value   float64
	Count   uint64
	Sum     uint64
	Buckets []uint64
}

// Snapshot collects every series into an immutable, deterministically
// ordered slice (by name, then rendered labels). Callback-backed
// series are evaluated during collection.
func (r *Registry) Snapshot() []Point {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)

	var pts []Point
	for _, name := range names {
		f := r.families[name]
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			p := Point{Name: name, Labels: s.labels, Kind: f.kind}
			switch f.kind {
			case KindCounter:
				if s.cf != nil {
					p.Value = float64(s.cf())
				} else {
					p.Value = float64(s.c.Value())
				}
			case KindGauge:
				if s.gf != nil {
					p.Value = float64(s.gf())
				} else {
					p.Value = float64(s.g.Value())
				}
			case KindHistogram:
				// Sum before count: Observe adds to count first, so
				// every observation in this sum is in the count too,
				// and a concurrent snapshot never shows sum > count·max.
				p.Sum = s.h.sum.Load()
				p.Count = s.h.count.Load()
				b := make([]uint64, histBuckets)
				for i := range s.h.buckets {
					b[i] = s.h.buckets[i].Load()
				}
				p.Buckets = b
			}
			pts = append(pts, p)
		}
	}
	return pts
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4): one # HELP and # TYPE line per family, then
// each series; histograms expand to cumulative _bucket{le=…} lines
// (bucket upper bounds are 2^i - 1, trailing empty buckets elided, a
// +Inf bucket always present) plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	pts := r.Snapshot()
	var b strings.Builder
	last := ""
	for i := range pts {
		p := &pts[i]
		if p.Name != last {
			last = p.Name
			help := p.Name
			r.mu.Lock()
			if f := r.families[p.Name]; f != nil && f.help != "" {
				help = f.help
			}
			r.mu.Unlock()
			b.WriteString("# HELP ")
			b.WriteString(p.Name)
			b.WriteByte(' ')
			b.WriteString(escapeHelp(help))
			b.WriteByte('\n')
			b.WriteString("# TYPE ")
			b.WriteString(p.Name)
			b.WriteByte(' ')
			b.WriteString(p.Kind.String())
			b.WriteByte('\n')
		}
		rendered := renderLabels(p.Labels)
		switch p.Kind {
		case KindCounter, KindGauge:
			b.WriteString(p.Name)
			b.WriteString(rendered)
			b.WriteByte(' ')
			b.WriteString(strconv.FormatFloat(p.Value, 'g', -1, 64))
			b.WriteByte('\n')
		case KindHistogram:
			top := 0
			for i, n := range p.Buckets {
				if n != 0 {
					top = i
				}
			}
			var cum uint64
			for i := 0; i <= top && i < histBuckets-1; i++ {
				cum += p.Buckets[i]
				writeBucket(&b, p.Name, p.Labels,
					strconv.FormatUint(BucketBound(i), 10), cum)
			}
			writeBucket(&b, p.Name, p.Labels, "+Inf", p.Count)
			b.WriteString(p.Name)
			b.WriteString("_sum")
			b.WriteString(rendered)
			b.WriteByte(' ')
			b.WriteString(strconv.FormatUint(p.Sum, 10))
			b.WriteByte('\n')
			b.WriteString(p.Name)
			b.WriteString("_count")
			b.WriteString(rendered)
			b.WriteByte(' ')
			b.WriteString(strconv.FormatUint(p.Count, 10))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeBucket emits one cumulative histogram bucket line, splicing the
// le label after the series' own (sorted) labels.
func writeBucket(b *strings.Builder, name string, labels []Label, le string, cum uint64) {
	b.WriteString(name)
	b.WriteString("_bucket{")
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeValue(l.Value))
		b.WriteString(`",`)
	}
	b.WriteString(`le="`)
	b.WriteString(le)
	b.WriteString(`"} `)
	b.WriteString(strconv.FormatUint(cum, 10))
	b.WriteByte('\n')
}

// renderLabels renders a sorted label set as `{k="v",…}`, or "" for
// the empty set. The rendering doubles as the series map key, so it
// must be injective over label sets — escaping guarantees that.
func renderLabels(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var valueEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeValue escapes a label value per the exposition format.
func escapeValue(v string) string { return valueEscaper.Replace(v) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// escapeHelp escapes a HELP docstring per the exposition format.
func escapeHelp(v string) string { return helpEscaper.Replace(v) }
