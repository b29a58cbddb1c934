package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The tables below must list
// exactly the metrics of BENCHMARK.json (TestMetricTablesMatchBenchmark).
type metricDef struct{ name, unit, better string }

// endToEnd are the untraced metrics every workload reports: the wall
// time a user waits for one unit of the workload (a sweep, or a round
// of the query mix), the set-up before it, and the peak resident memory
// while one simulation of a sweep, or one round, runs. Each is the median
// over the run's set-ups, units or simulations.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, per unit (a sweep for batch
// workloads, a round for serve_mix). A layer a workload bypasses reads
// zero. Times are medians over the traced units; counts are
// deterministic for a seed.
var perLayer = []metricDef{
	{"eventsim.events", "count", "lower"},
	{"eventsim.self_s", "s", "lower"},
	{"eventsim.ns_per_event", "ns", "lower"},
	{"kademlia.deliver_s", "s", "lower"},
	{"kademlia.deliver_calls", "count", "lower"},
	{"kademlia.ns_per_deliver", "ns", "lower"},
	{"kademlia.rpcs_sent", "count", "lower"},
	{"kademlia.timeouts", "count", "lower"},
	{"kademlia.lookups_started", "count", "lower"},
	{"kademlia.lookup_success_ratio", "ratio", "higher"},
	{"kademlia.refreshes", "count", "lower"},
	{"kademlia.evictions", "count", "lower"},
	{"simnet.sent", "count", "lower"},
	{"simnet.delivered", "count", "lower"},
	{"simnet.lost", "count", "lower"},
	{"simnet.noroute", "count", "lower"},
	{"traffic.lookups", "count", "lower"},
	{"traffic.stores", "count", "lower"},
	{"churn.added", "count", "lower"},
	{"churn.removed", "count", "lower"},
	{"snapshot.capture_s", "s", "lower"},
	{"snapshot.captures", "count", "lower"},
	{"snapshot.edges", "count", "lower"},
	{"snapshot.slot_compactions", "count", "lower"},
	{"connectivity.bind_s", "s", "lower"},
	{"connectivity.full_binds", "count", "lower"},
	{"connectivity.incremental_binds", "count", "higher"},
	{"connectivity.membership_rebinds", "count", "higher"},
	{"connectivity.rebind_fallbacks", "count", "lower"},
	{"connectivity.analyze_s", "s", "lower"},
	{"connectivity.flows", "count", "lower"},
	{"connectivity.ns_per_flow", "ns", "lower"},
	{"connectivity.maintain_s", "s", "lower"},
	{"connectivity.redensifies", "count", "lower"},
	{"scenario.setup_phase_s", "s", "lower"},
	{"scenario.stabilize_phase_s", "s", "lower"},
	{"scenario.churn_phase_s", "s", "lower"},
	{"serve.build_s", "s", "lower"},
	{"serve.arena_hits", "count", "higher"},
	{"serve.arena_misses", "count", "lower"},
	{"serve.arena_evictions", "count", "lower"},
	{"serve.arena_used_mb", "MB", "lower"},
	{"serve.overhead_ms", "ms", "lower"},
	{"serve.cold_p50_ms", "ms", "lower"},
	{"serve.cold_p90_ms", "ms", "lower"},
	{"serve.resample_p50_ms", "ms", "lower"},
	{"serve.resample_p90_ms", "ms", "lower"},
	{"serve.warm_qps", "1/s", "higher"},
	{"sweep.reps_run", "count", "lower"},
	{"sweep.reps_consumed", "count", "lower"},
	{"go.alloc_mb", "MB", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"trace.overhead_s", "s", "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill returns every metric of defs, taking values from vals; a metric
// vals lacks reads zero.
func fill(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// median returns the median of xs (the mean of the middle two for an
// even count), NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs, NaN for
// none.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// ratio is a/b, zero when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianOf returns, for every key any of the maps holds, the median of
// its values across the maps (a map lacking the key contributes zero).
func medianOf(units []map[string]float64) map[string]float64 {
	keys := map[string]bool{}
	for _, u := range units {
		for k := range u {
			keys[k] = true
		}
	}
	out := make(map[string]float64, len(keys))
	for k := range keys {
		xs := make([]float64, len(units))
		for i, u := range units {
			xs[i] = u[k]
		}
		out[k] = median(xs)
	}
	return out
}
