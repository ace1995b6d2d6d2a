// Package obs is the stdlib-only observability layer: a metrics
// registry of atomic counters, gauges and fixed-bucket histograms with
// mergeable snapshots, lightweight span timers, a Prometheus text
// exposition writer, expvar publishing, and per-request ID propagation
// through context.
//
// The design goals, in order:
//
//   - hot-path cost: observing a counter or histogram is a handful of
//     atomic adds and never allocates, so the solver's epoch kernels
//     keep their 0 allocs/op property with instrumentation enabled
//     (bench-asserted);
//   - no dependencies: only the standard library, so every package —
//     including internal/matrix at the bottom of the stack — can
//     instrument itself;
//   - two scopes: the package-level Default registry carries
//     process-wide solver-stage metrics (chain construction, LU
//     factorization, epoch kernels), while components that
//     need isolated counters (one serve.Server per test) create their
//     own Registry and expose both on one /metrics endpoint.
//
// Metric handles are resolved once (package var or struct field) and
// then observed lock-free; the registry lock is only taken at
// registration and at scrape time.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant key="value" pair attached to a metric at
// registration. Metrics sharing a name but differing in labels form a
// family and are exposed under a single HELP/TYPE header.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// kind is the exposition type of a metric.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is the registry's view of one registered instrument.
type metric interface {
	meta() *metricMeta
	// writeProm appends the metric's sample lines (no HELP/TYPE
	// headers) to b.
	writeProm(b *strings.Builder)
	// value returns a JSON-friendly snapshot for expvar.
	value() any
}

// metricMeta is the identity shared by every metric type.
type metricMeta struct {
	name   string
	help   string
	kind   kind
	labels string // rendered `k="v",...`, may be empty
}

func (m *metricMeta) meta() *metricMeta { return m }

// id is the registry key: name plus rendered labels.
func (m *metricMeta) id() string { return m.name + "{" + m.labels + "}" }

// Registry holds a set of named metrics. The zero value is not usable;
// create with NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	order   []metric          // registration order, families kept adjacent
	byID    map[string]metric // name{labels} → metric
	byName  map[string]kind   // family name → kind (conflict detection)
	helpFor map[string]string // family name → first registered help
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byID:    make(map[string]metric),
		byName:  make(map[string]kind),
		helpFor: make(map[string]string),
	}
}

// Default is the process-wide registry used by the solver pipeline's
// package-level metrics.
var Default = NewRegistry()

// register adds m to the registry, or returns the already-registered
// metric with the same name and labels. Registering the same name with
// a different kind panics: that is a programming error no caller can
// recover from meaningfully.
func (r *Registry) register(m metric) metric {
	mm := m.meta()
	r.mu.Lock()
	defer r.mu.Unlock()
	if k, ok := r.byName[mm.name]; ok && k != mm.kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v, was %v", mm.name, mm.kind, k))
	}
	if existing, ok := r.byID[mm.id()]; ok {
		return existing
	}
	r.byName[mm.name] = mm.kind
	if _, ok := r.helpFor[mm.name]; !ok {
		r.helpFor[mm.name] = mm.help
	}
	r.byID[mm.id()] = m
	// Keep families adjacent so the exposition emits one HELP/TYPE
	// block per name.
	insert := len(r.order)
	for i := len(r.order) - 1; i >= 0; i-- {
		if r.order[i].meta().name == mm.name {
			insert = i + 1
			break
		}
	}
	r.order = append(r.order, nil)
	copy(r.order[insert+1:], r.order[insert:])
	r.order[insert] = m
	return m
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	metricMeta
	v atomic.Int64
}

// Counter registers (or returns the existing) counter name{labels}.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{metricMeta: metricMeta{name: name, help: help, kind: kindCounter, labels: renderLabels(labels)}}
	return r.register(c).(*Counter)
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored (counters are monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) writeProm(b *strings.Builder) {
	writeSample(b, c.name, c.labels, "", fmt.Sprintf("%d", c.v.Load()))
}

func (c *Counter) value() any { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct {
	metricMeta
	v atomic.Int64
}

// Gauge registers (or returns the existing) gauge name{labels}.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{metricMeta: metricMeta{name: name, help: help, kind: kindGauge, labels: renderLabels(labels)}}
	return r.register(g).(*Gauge)
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) writeProm(b *strings.Builder) {
	writeSample(b, g.name, g.labels, "", fmt.Sprintf("%d", g.v.Load()))
}

func (g *Gauge) value() any { return g.v.Load() }

// GaugeFunc is a gauge whose value is computed at scrape time — for
// quantities another component already tracks (queue depth, budget
// occupancy) where mirroring into an atomic would invite drift.
type GaugeFunc struct {
	metricMeta
	fn func() float64
}

// GaugeFunc registers a computed gauge. fn is called at every scrape
// and must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) *GaugeFunc {
	g := &GaugeFunc{metricMeta: metricMeta{name: name, help: help, kind: kindGauge, labels: renderLabels(labels)}, fn: fn}
	return r.register(g).(*GaugeFunc)
}

func (g *GaugeFunc) writeProm(b *strings.Builder) {
	writeSample(b, g.name, g.labels, "", formatFloat(g.fn()))
}

func (g *GaugeFunc) value() any { return g.fn() }
