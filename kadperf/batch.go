package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"kadre/internal/churn"
	"kadre/internal/scenario"
	"kadre/internal/sweep"
)

// batchWorkload is a sweep run one simulation at a time, the way
// kadsweep -jobs 1 runs an experiment.
type batchWorkload struct {
	id, title string
	configs   func(seed int64) ([]scenario.Config, error)
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// minUnits is the fewest untraced units an untraced run measures.
const minUnits = 3

// setup resolves the sweep and runs one short warm-up simulation (the
// first config cut to its setup phase, without churn), so that the
// measured sweeps start with warm code and a grown heap.
func (b batchWorkload) setup(seed int64) ([]scenario.Config, error) {
	cfgs, err := b.configs(seed)
	if err != nil {
		return nil, err
	}
	warm := cfgs[0]
	warm.Name += "/warm-up"
	warm.Stabilize, warm.ChurnPhase, warm.Churn = time.Minute, 0, churn.Rate{}
	if _, err := scenario.Run(warm); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return cfgs, nil
}

// sweepDoc renders a finished sweep as kadsweep's JSON document (jobs is
// pinned to 0, so the informational field never differs) followed by the
// per-run counters the document leaves out. Two sweeps that agree on
// these bytes agree on every Point and counter.
func (b batchWorkload) sweepDoc(sets []*sweep.RunSet) ([]byte, error) {
	var buf bytes.Buffer
	if err := sweep.WriteJSON(&buf, sweep.JSONMeta{Experiment: b.id, Title: b.title, Scale: "tiny"}, sets); err != nil {
		return nil, err
	}
	for _, rs := range sets {
		for _, r := range rs.Reps {
			fmt.Fprintf(&buf, "%s incremental=%d full=%d membership=%d net=%+v\n",
				r.Config.Name, r.IncrementalBinds, r.FullBinds, r.MembershipRebinds, r.Network)
		}
	}
	return buf.Bytes(), nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// untracedSweep runs the sweep through sweep.Run and renders it. It
// also returns the peak resident memory of each simulation of the sweep.
func (b batchWorkload) untracedSweep(cfgs []scenario.Config) ([]byte, time.Duration, []float64, error) {
	var peaks []float64
	resetPeakRSS()
	start := time.Now()
	sets, err := sweep.Run(cfgs, sweep.Options{Jobs: 1, Progress: func(sweep.Event) {
		peaks = append(peaks, peakRSSMB())
		resetPeakRSS()
	}})
	if err != nil {
		return nil, 0, nil, err
	}
	doc, err := b.sweepDoc(sets)
	return doc, time.Since(start), peaks, err
}

// tracedSweep runs the same sweep through tracedRun, one config at a
// time, under a "sweep" root span, and renders it the same way.
func (b batchWorkload) tracedSweep(cfgs []scenario.Config, tr *Tracer) ([]byte, int, counts, error) {
	root := tr.Begin("sweep", 0, 0)
	defer tr.End(root)
	var total counts
	sets := make([]*sweep.RunSet, len(cfgs))
	for i, cfg := range cfgs {
		res, _, c, err := tracedRun(context.Background(), cfg, tr, root, 0)
		if err != nil {
			return nil, 0, counts{}, err
		}
		total.add(c)
		sets[i] = &sweep.RunSet{Config: cfg, Reps: []*scenario.Result{res}}
		sets[i].Config.Seed = sweep.DeriveSeed(cfg.Seed, 0)
	}
	agg := tr.Begin("sweep.aggregate", root, 0)
	defer tr.End(agg)
	for _, rs := range sets {
		if err := rs.Aggregate(); err != nil {
			return nil, 0, counts{}, err
		}
	}
	doc, err := b.sweepDoc(sets)
	return doc, root, total, err
}

// memDelta measures the heap allocation and GC cycles of fn.
func memDelta(fn func() error) (allocMB, gcs float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20), float64(after.NumGC - before.NumGC), err
}

func (b batchWorkload) run(o options) (*outcome, error) {
	out := &outcome{Values: map[string]float64{}}
	var cfgs []scenario.Config
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		var err error
		if cfgs, err = b.setup(o.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	out.Values["setup_s"] = median(setups)

	var first []byte
	check := func(doc []byte, what string) {
		out.Attempted += len(cfgs)
		switch {
		case first == nil:
			first = doc
		case !bytes.Equal(doc, first):
			out.Failed += len(cfgs)
			out.failf("%s: %s sweep bytes differ from the run's first sweep", b.id, what)
		}
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	var runs, rss []float64
	var tr *Tracer
	if o.trace {
		tr = newTracer()
	}
	var traced []map[string]float64
	var last time.Duration
	for !unitsDone(o, deadline, last, len(runs), len(traced)) {
		iter := time.Now()
		runtime.GC()
		var doc []byte
		var d time.Duration
		var peaks []float64
		alloc, gcs, err := memDelta(func() (err error) {
			doc, d, peaks, err = b.untracedSweep(cfgs)
			return err
		})
		if err != nil {
			return nil, err
		}
		rss = append(rss, peaks...)
		check(doc, "untraced")
		runs = append(runs, d.Seconds())
		fmt.Printf("unit %d untraced sweep %.4fs alloc %.1fMB gc %.0f\n", len(runs), d.Seconds(), alloc, gcs)
		if !o.trace {
			out.Units = append(out.Units, map[string]float64{"run_s": d.Seconds(), "peak_rss_mb": median(peaks)})
			last = time.Since(iter)
			continue
		}
		runtime.GC()
		tdoc, root, c, err := b.tracedSweep(cfgs, tr)
		if err != nil {
			return nil, err
		}
		check(tdoc, "traced")
		tree := newSpanTree(tr.Spans())
		unit := layerValues(tree, root, c)
		unit["go.alloc_mb"], unit["go.gc_cycles"] = alloc, gcs
		unit["untraced_s"] = d.Seconds()
		unit["trace.overhead_s"] = unit["unit_s"] - d.Seconds()
		unit["sweep.reps_run"], unit["sweep.reps_consumed"] = float64(c.Runs), float64(c.Runs)
		traced = append(traced, unit)
		out.Units = append(out.Units, unit)
		fmt.Printf("unit %d traced sweep %.4fs\n", len(traced), unit["unit_s"])
		last = time.Since(iter)
	}
	out.Values["run_s"] = median(runs)
	out.Values["peak_rss_mb"] = median(rss)
	if want, ok := pinnedDigests[b.id]; ok && o.seed == defaultSeed {
		out.Attempted++
		if got := digest(first); got != want {
			out.Failed++
			out.failf("%s: seed %d sweep digest %s, pinned %s", b.id, o.seed, got, want)
		}
	}
	fmt.Printf("sweep digest %s\n", digest(first))
	if o.trace {
		for k, v := range medianOf(traced) {
			out.Values[k] = v
		}
		out.Attribution = attribution(traced)
		printAttribution(b.id, out.Attribution, traced)
		out.Spans = tr.Spans()
	}
	return out, nil
}

// unitsDone reports whether a run has measured enough units: it has at
// least minUnits untraced units, or, traced, at least one traced unit,
// and less than half of the last iteration's time is left.
func unitsDone(o options, deadline time.Time, last time.Duration, untraced, traced int) bool {
	if time.Now().Add(last / 2).Before(deadline) {
		return false
	}
	if o.trace {
		return traced >= 1
	}
	return untraced >= minUnits
}

// layerValues computes one traced unit's per-layer metrics from its span
// subtree and work counts, plus the layer self times (keyed "self:")
// that attribution reads.
func layerValues(tree *spanTree, root int, c counts) map[string]float64 {
	self, by := tree.layerTimes(root)
	v := map[string]float64{
		"unit_s":                          float64(tree.spans[root-1].busy()) / 1e9,
		"eventsim.events":                 float64(c.Events),
		"eventsim.self_s":                 self["eventsim"],
		"kademlia.deliver_s":              by["kademlia.Deliver"],
		"kademlia.deliver_calls":          float64(c.DeliverCalls),
		"kademlia.rpcs_sent":              float64(c.RPCsSent),
		"kademlia.timeouts":               float64(c.Timeouts),
		"kademlia.lookups_started":        float64(c.LookupsStarted),
		"kademlia.lookup_success_ratio":   ratio(float64(c.LookupsDone), float64(c.LookupsStarted)),
		"kademlia.refreshes":              float64(c.Refreshes),
		"kademlia.evictions":              float64(c.Evictions),
		"simnet.sent":                     float64(c.Sent),
		"simnet.delivered":                float64(c.Delivered),
		"simnet.lost":                     float64(c.Lost),
		"simnet.noroute":                  float64(c.NoRoute),
		"traffic.lookups":                 float64(c.Lookups),
		"traffic.stores":                  float64(c.Stores),
		"churn.added":                     float64(c.ChurnAdded),
		"churn.removed":                   float64(c.ChurnRemoved),
		"snapshot.capture_s":              by["snapshot.CaptureSlots"],
		"snapshot.captures":               float64(c.Captures),
		"snapshot.edges":                  float64(c.Edges),
		"snapshot.slot_compactions":       float64(c.SlotCompactions),
		"connectivity.bind_s":             by["connectivity.BindNextSlots"],
		"connectivity.full_binds":         float64(c.FullBinds),
		"connectivity.incremental_binds":  float64(c.IncrementalBind),
		"connectivity.membership_rebinds": float64(c.MemberRebinds),
		"connectivity.rebind_fallbacks":   float64(c.RebindFallbacks),
		"connectivity.analyze_s":          by["connectivity.AnalyzeSnapshot"],
		"connectivity.flows":              float64(c.Flows),
		"connectivity.maintain_s":         by["connectivity.Maintain"],
		"connectivity.redensifies":        float64(c.Redensifies),
		"scenario.setup_phase_s":          by["phase.setup"],
		"scenario.stabilize_phase_s":      by["phase.stabilize"],
		"scenario.churn_phase_s":          by["phase.churn"],
		"serve.build_s":                   by["serve.build"],
	}
	for layer, s := range self {
		v["self:"+layer] = s
	}
	derive(v)
	return v
}

// derive fills the per-unit rates from a unit's times and counts.
func derive(v map[string]float64) {
	v["eventsim.ns_per_event"] = ratio(v["eventsim.self_s"]*1e9, v["eventsim.events"])
	v["kademlia.ns_per_deliver"] = ratio(v["kademlia.deliver_s"]*1e9, v["kademlia.deliver_calls"])
	v["connectivity.ns_per_flow"] = ratio(v["connectivity.analyze_s"]*1e9, v["connectivity.flows"])
}
