package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by this benchmark around
// the layer's public function. Spans of one request share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    string `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes run the same code without spans.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func noop() {}

// begin opens a span and returns its id and the function that ends it.
func (t *tracer) begin(parent int64, req, name string) (int64, func()) {
	if t == nil {
		return 0, noop
	}
	id := t.next.Add(1)
	start := time.Since(t.epoch)
	return id, func() {
		t.add(span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(start), End: int64(time.Since(t.epoch))})
	}
}

// record adds a span whose interval was measured elsewhere.
func (t *tracer) record(parent int64, req, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	id := t.next.Add(1)
	t.add(span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return id
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, kids[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, end := int64(0), parent.Start
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// writeNDJSON writes one span per line.
func writeNDJSON(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
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
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// layerNames are the span names that stand for one module of the
// toolchain. Every other span name is the benchmark's own glue and is
// reported together as unattributed time.
var layerNames = []string{
	"minic.compile",
	"opt.optimize",
	"trace.collect",
	"core.apply",
	"baselines.apply",
	"dispatch.compile",
	"emulator.continuous",
	"emulator.exhaustion",
	"emulator.harvested",
	"emulator.observed",
	"obs.reconcile",
	"verify.run",
	"crashtest.hunt",
	"transval.validate",
	"bench.harness",
}

// accounting sums self time over the traced passes of a run and the
// worker capacity they had: workers × wall of each pass.
type accounting struct {
	self     map[string]time.Duration
	capacity time.Duration
	passes   int
	spans    int
	all      []span
}

func (a *accounting) add(t *tracer, workers int, wall time.Duration) {
	spans := t.snapshot()
	if a.self == nil {
		a.self = map[string]time.Duration{}
	}
	for name, d := range selfTimes(spans) {
		a.self[name] += d
	}
	a.capacity += time.Duration(workers) * wall
	a.passes++
	a.spans += len(spans)
	a.all = append(a.all, spans...)
}

// shares reports each layer's self time as a percentage of capacity,
// plus the unattributed and idle remainders; the three parts sum to 100.
func (a *accounting) shares() map[string]float64 {
	out := map[string]float64{}
	if a.capacity <= 0 {
		return out
	}
	pct := func(d time.Duration) float64 { return 100 * float64(d) / float64(a.capacity) }
	layer := map[string]bool{}
	var busy time.Duration
	for _, name := range layerNames {
		layer[name] = true
		out[name+".self_pct"] = pct(a.self[name])
		busy += a.self[name]
	}
	var glue time.Duration
	for name, d := range a.self {
		if !layer[name] {
			glue += d
		}
	}
	out["unattributed_pct"] = pct(glue)
	out["idle_pct"] = max(0, 100-pct(busy+glue))
	return out
}
