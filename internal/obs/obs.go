// Package obs is the serving stack's metrics core: atomic counters, gauges
// and fixed-bucket latency histograms, a registry that renders them in the
// Prometheus text exposition format, and the per-request trace that carries
// one request ID and its stage timings through router and workers.
//
// The design constraint is the same one the probe counters in cubestore
// live under: recording on the query hot path must not allocate and must
// not serialize concurrent probes on one cache line. Counters and histogram
// stripes are therefore striped across padded cache lines (see stripeIndex),
// and Observe/Add are pure atomic arithmetic — no maps, no interfaces, no
// time formatting. Everything slow (label rendering, sorting, text output)
// happens at registration or exposition time, off the hot path.
//
// The package is stdlib-only on purpose: the serving binary stays
// dependency-free, and the exposition writer emits the subset of the
// Prometheus text format (version 0.0.4) that scrapers actually parse.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// counterStripes spreads one logical counter across this many cache lines,
// like cubestore's probe-counter stripes: concurrent recorders land on
// different lines instead of bouncing one hot word between cores. Power of
// two so the stripe pick is a mask.
const counterStripes = 8

// counterStripe is one cache-line-sized slot of a striped counter. The
// padding keeps neighboring stripes out of each other's line.
type counterStripe struct {
	n atomic.Int64
	_ [56]byte
}

// stripeIndex derives a stripe from the address of its own stack frame:
// goroutines live on distinct stacks, so concurrent recorders spread across
// stripes, while a single goroutine keeps hitting the same (warm) one. The
// Fibonacci multiplier mixes all address bits into the top three, so stacks
// allocated a power-of-two apart do not alias onto one stripe. Converting
// the pointer TO uintptr is the safe direction; the address never escapes.
func stripeIndex() uint32 {
	var b byte
	p := uintptr(unsafe.Pointer(&b))
	return uint32((uint64(p) * 0x9e3779b97f4a7c15) >> 61)
}

// Counter is a monotonically increasing metric, striped for concurrent
// recording. The zero value is ready to use; registry-created counters are
// shared by name, so the same series can be recorded from several sites.
type Counter struct {
	s [counterStripes]counterStripe
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (callers keep counters monotonic; the registry does not check).
func (c *Counter) Add(n int64) {
	c.s[stripeIndex()].n.Add(n)
}

// Value sums the stripes.
func (c *Counter) Value() int64 {
	var total int64
	for i := range c.s {
		total += c.s[i].n.Load()
	}
	return total
}

// Gauge is a settable instantaneous value. Gauges record state transitions
// (generation, backlog), not per-probe events, so one atomic word suffices.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Metric type names, as exposed in the # TYPE line.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one labeled instance of a family: exactly one of the value
// fields is set, fixed at registration.
type series struct {
	labels string // rendered `k="v",k2="v2"` inner block; "" when unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
	cf     func() int64   // counter read from an external source
	gf     func() float64 // gauge read from an external source
}

// family is all series sharing one metric name, help string and type.
type family struct {
	name, help, typ string
	series          map[string]*series
}

// Registry is a set of metric families. Registration is get-or-create: two
// calls with the same name and labels return the same instrument, so
// instrumentation sites do not need to coordinate who registers first. A
// name registered with a conflicting type or value kind panics — that is a
// programming error, not a runtime condition.
//
// Servers hold one registry per instance (per-endpoint latencies on a
// worker must not merge with the router's), and package-global
// instrumentation records into Default; the exposition writer merges any
// set of registries into one scrape.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// Default is the process-wide registry for package-global instrumentation
// (probe latency, WAL latency): layers that do not know which server fronts
// them record here, and every /metrics handler includes it.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// renderLabels turns alternating key/value arguments into the canonical
// inner label block, escaping values per the text format.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q (want key/value pairs)", kv))
	}
	var sb strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(kv[i])
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(kv[i+1]))
		sb.WriteByte('"')
	}
	return sb.String()
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// register resolves (name, labels) to its series, creating family and
// series as needed. fill populates a fresh series; check validates that an
// existing one was registered with the same value kind.
func (r *Registry) register(name, help, typ string, kv []string, fill func(*series), check func(*series) bool) *series {
	labels := renderLabels(kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.fams[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.typ, typ))
	}
	s := f.series[labels]
	if s == nil {
		s = &series{labels: labels}
		fill(s)
		f.series[labels] = s
	} else if !check(s) {
		panic(fmt.Sprintf("obs: metric %s{%s} re-registered with a different value kind", name, labels))
	}
	return s
}

// Counter returns the counter series (name, labels), creating it on first
// use. Labels are alternating key/value arguments.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	s := r.register(name, help, typeCounter, kv,
		func(s *series) { s.c = &Counter{} },
		func(s *series) bool { return s.c != nil })
	return s.c
}

// CounterFunc registers a counter whose value is read from f at exposition
// time — the bridge for counters that already exist elsewhere (cubestore's
// probe stripes, the query cache's hit counts).
func (r *Registry) CounterFunc(name, help string, f func() int64, kv ...string) {
	r.register(name, help, typeCounter, kv,
		func(s *series) { s.cf = f },
		func(s *series) bool { return s.cf != nil })
}

// Gauge returns the gauge series (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, kv ...string) *Gauge {
	s := r.register(name, help, typeGauge, kv,
		func(s *series) { s.g = &Gauge{} },
		func(s *series) bool { return s.g != nil })
	return s.g
}

// GaugeFunc registers a gauge read from f at exposition time.
func (r *Registry) GaugeFunc(name, help string, f func() float64, kv ...string) {
	r.register(name, help, typeGauge, kv,
		func(s *series) { s.gf = f },
		func(s *series) bool { return s.gf != nil })
}

// Histogram returns the histogram series (name, labels), creating it on
// first use. Durations land in fixed exponential buckets (see histogram.go);
// by convention names end in _seconds and the exposition renders bounds in
// seconds.
func (r *Registry) Histogram(name, help string, kv ...string) *Histogram {
	s := r.register(name, help, typeHistogram, kv,
		func(s *series) { s.h = &Histogram{} },
		func(s *series) bool { return s.h != nil })
	return s.h
}

// famView is an exposition-time copy of a family: metadata plus the series
// list frozen under the registry lock. The series pointers themselves are
// stable after creation and their values are read atomically, so only the
// map iteration needs the lock.
type famView struct {
	name, help, typ string
	series          []*series
}

// snapshot returns the families sorted by name, each with series sorted by
// label block — the deterministic exposition order.
func (r *Registry) snapshot() []famView {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]famView, 0, len(r.fams))
	for _, f := range r.fams {
		fv := famView{name: f.name, help: f.help, typ: f.typ,
			series: make([]*series, 0, len(f.series))}
		for _, s := range f.series {
			fv.series = append(fv.series, s)
		}
		sort.Slice(fv.series, func(i, j int) bool { return fv.series[i].labels < fv.series[j].labels })
		fams = append(fams, fv)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}
