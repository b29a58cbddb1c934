package main

import (
	"fmt"
	"sync"
	"time"
)

// Span is one traced interval, recorded by the benchmark around a call
// into one of kadre's public functions. Times are nanoseconds since the
// tracer's epoch; Parent is 0 for a root span.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	RID    int    `json:"rid,omitempty"` // serve_mix request id
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// An aggregate span folds every call of one very frequent boundary
	// (kademlia.Deliver, about a million per sweep) into one record under
	// the span that enclosed them: Start and End are the enclosing span's,
	// BusyNS is the summed call time.
	Aggregate bool  `json:"aggregate,omitempty"`
	Calls     int64 `json:"calls,omitempty"`
	BusyNS    int64 `json:"busy_ns,omitempty"`
}

// busy is the time a span covers inside its parent.
func (s Span) busy() int64 {
	if s.Aggregate {
		return s.BusyNS
	}
	return s.End - s.Start
}

// Tracer keeps spans in memory until the benchmark writes them out. It is
// safe for concurrent use: serve_mix records client spans on the client
// goroutine and build spans on the server's.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// Begin opens a span and returns its id.
func (t *Tracer) Begin(name string, parent, rid int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, RID: rid, Start: start})
	return id
}

// End closes the span id.
func (t *Tracer) End(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// Aggregate records calls to one boundary, busy for a summed d, as an
// aggregate child of the closed span parent.
func (t *Tracer) Aggregate(name string, parent, rid int, calls int64, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	t.spans = append(t.spans, Span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, RID: rid,
		Start: p.Start, End: p.End, Aggregate: true, Calls: calls, BusyNS: int64(d),
	})
}

// Spans returns a copy of every span recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// spanTree indexes spans by parent for subtree walks.
type spanTree struct {
	spans    []Span // spans[i].ID == i+1
	children map[int][]int
}

func newSpanTree(spans []Span) *spanTree {
	tr := &spanTree{spans: spans, children: make(map[int][]int)}
	for _, s := range spans {
		tr.children[s.Parent] = append(tr.children[s.Parent], s.ID)
	}
	return tr
}

// self is a span's duration minus the time its children cover.
func (tr *spanTree) self(id int) int64 {
	s := tr.spans[id-1]
	d := s.busy()
	for _, c := range tr.children[id] {
		d -= tr.spans[c-1].busy()
	}
	return d
}

// walk visits the subtree rooted at id, root included.
func (tr *spanTree) walk(id int, visit func(Span)) {
	visit(tr.spans[id-1])
	for _, c := range tr.children[id] {
		tr.walk(c, visit)
	}
}

// layerTimes sums, over the subtree rooted at id, the self time of every
// span by the layer its name belongs to (see spanLayer), in seconds, and
// the summed busy time of every span by name, in seconds.
func (tr *spanTree) layerTimes(id int) (self, byName map[string]float64) {
	self, byName = make(map[string]float64), make(map[string]float64)
	tr.walk(id, func(s Span) {
		self[spanLayer[s.Name]] += float64(tr.self(s.ID)) / 1e9
		byName[s.Name] += float64(s.busy()) / 1e9
	})
	return self, byName
}

// spanLayer maps every span name the benchmark records to the layer its
// self time is charged to. eventsim's share is RunUntil's self time: the
// kernel plus every event that is not a Deliver or a snapshot — timers,
// bucket refreshes, RPC timeouts, and the traffic and churn generators'
// ticks with the lookups and joins they start. A serve_mix round's own
// self time is the client loop's. The serve.AnalyzeFinal spans of a
// replay stand apart from the rounds; serve_mix charges their time to
// connectivity.analyze itself.
var spanLayer = map[string]string{
	"sweep":                        "sweep",
	"sweep.aggregate":              "sweep",
	"round":                        "client",
	"client.query":                 "client",
	"server.handle":                "serve",
	"serve.build":                  "serve",
	"scenario.run":                 "scenario",
	"scenario.setup":               "scenario",
	"scenario.finish":              "scenario",
	"phase.setup":                  "eventsim",
	"phase.stabilize":              "eventsim",
	"phase.churn":                  "eventsim",
	"kademlia.Deliver":             "kademlia",
	"snapshot":                     "snapshot",
	"snapshot.CaptureSlots":        "snapshot",
	"snapshot.Compact":             "snapshot",
	"connectivity.BindNextSlots":   "connectivity.bind",
	"connectivity.AnalyzeSnapshot": "connectivity.analyze",
	"connectivity.Maintain":        "connectivity.maintain",
}

// layerOrder is the order attribution tables list layers in.
var layerOrder = []string{
	"eventsim", "kademlia", "snapshot",
	"connectivity.bind", "connectivity.analyze", "connectivity.maintain",
	"scenario", "sweep", "serve", "client",
}

// attributionRow is one layer's share of a traced unit's wall time.
type attributionRow struct {
	Layer   string  `json:"layer"`
	Seconds float64 `json:"seconds"`
	Share   float64 `json:"share"`
}

// attribution splits the traced units' wall time into layer self times
// (medians over units), the time no span covers, and the tracing
// overhead: the traced unit's wall time minus the untraced one's, as a
// share of the untraced time.
func attribution(units []map[string]float64) []attributionRow {
	var rows []attributionRow
	covered := 0.0
	for _, layer := range layerOrder {
		var secs, shares []float64
		for _, u := range units {
			secs = append(secs, u["self:"+layer])
			shares = append(shares, ratio(u["self:"+layer], u["unit_s"]))
		}
		rows = append(rows, attributionRow{Layer: layer, Seconds: median(secs), Share: median(shares)})
		covered += median(shares)
	}
	var unit, over []float64
	for _, u := range units {
		unit = append(unit, u["unit_s"])
		over = append(over, ratio(u["trace.overhead_s"], u["untraced_s"]))
	}
	rows = append(rows,
		attributionRow{Layer: "uncovered", Share: 1 - covered},
		attributionRow{Layer: "tracing overhead", Seconds: median(unit) * median(over), Share: median(over)})
	return rows
}

// printAttribution prints the attribution table of one workload.
func printAttribution(workload string, rows []attributionRow, units []map[string]float64) {
	var unit, untraced []float64
	for _, u := range units {
		unit = append(unit, u["unit_s"])
		untraced = append(untraced, u["untraced_s"])
	}
	fmt.Printf("attribution %s: traced unit %.4fs, untraced unit %.4fs (medians of %d)\n",
		workload, median(unit), median(untraced), len(units))
	for _, r := range rows {
		fmt.Printf("  %-24s %6.1f%%  %9.4fs\n", r.Layer, 100*r.Share, r.Seconds)
	}
}
