package main

import (
	_ "embed"
	"encoding/json"
	"sort"

	"kadre/internal/scenario"
	"kadre/internal/workload"
)

// defaultSeed is the seed whose batch sweep digests are pinned in
// digests.json.
const defaultSeed = 1

//go:embed digests.json
var digestsJSON []byte

// pinnedDigests maps a batch workload to the digest of its sweep at
// defaultSeed (see batchWorkload.sweepDoc).
var pinnedDigests = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic("digests.json: " + err.Error())
	}
	return m
}()

//go:embed workloads/churn_rebind.json
var churnRebindSpec []byte

// runner is one workload.
type runner interface {
	run(o options) (*outcome, error)
}

// workloads are the benchmark's workloads. Each comment says why the
// workload was chosen and which layers it loads and bypasses, and keeps
// the layer shares of its traced unit (self time as a share of the unit's
// wall time, medians over the traced units of a 30-second run at seed 1)
// as measured on a 2-core Intel Xeon host, GOMAXPROCS 2, go1.24.
var workloads = map[string]runner{
	// fig4_traffic is the paper's Figure 4 (Sim C: small network, 0/1
	// drain churn, 10 lookups and 1 store per node per minute) at tiny
	// scale, all four k, run as a sweep one simulation at a time. Kademlia
	// request handling, the event kernel and the simulated network do
	// almost all the work; the connectivity analysis does almost none. Its
	// Kademlia work is reads: FIND_NODE and STORE handling. It bypasses
	// serve and the arena.
	//
	//	kademlia (Deliver) 64.2%  eventsim 35.6%  connectivity 0.2%
	//	snapshot 0.1%  sweep and scenario 0.0%  tracing overhead 1.8%
	//	untraced sweep 8.33 s
	"fig4_traffic": batchWorkload{
		id:    "figure4",
		title: "Sim C: size small, churn 0/1, with data traffic",
		configs: func(seed int64) ([]scenario.Config, error) {
			return scenario.TinyScale.Figure4(seed).Configs, nil
		},
	},
	// churn_rebind is workloads/churn_rebind.json: 100 nodes, k in {10,
	// 20}, fixed-rate 10/10 churn for 80 simulated minutes, no data
	// traffic, snapshots every 5 simulated minutes at c = 0.1. Every snapshot rebinds the connectivity
	// engine incrementally across the joins and leaves since the last one,
	// then runs a max-flow sweep, so bind and analysis dominate. Its
	// Kademlia work is joins and routing-table inserts (writes). It
	// bypasses traffic, serve and the arena.
	//
	//	connectivity.analyze 66.7%  kademlia 19.8%  eventsim 6.7%
	//	connectivity.bind 3.8%  snapshot 2.1%  connectivity.maintain 0.8%
	//	tracing overhead -2.5% (within noise)  untraced sweep 2.99 s
	"churn_rebind": batchWorkload{
		id:    "churn_rebind",
		title: "membership churn 10/10 at size 100, no data traffic, snapshots every 5 minutes",
		configs: func(seed int64) ([]scenario.Config, error) {
			sp, err := workload.Decode(churnRebindSpec)
			if err != nil {
				return nil, err
			}
			exp, err := scenario.FromSpec(sp, scenario.TinyScale, seed)
			if err != nil {
				return nil, err
			}
			return exp.Configs, nil
		},
	},
	// serve_mix drives serve.NewServer over loopback HTTP with one
	// closed-loop client; see servemix.go for the query classes. It is the
	// only workload through serve, sweep.RunAdaptive and the arena: arena
	// writes (cold) beside reads (warm), and connectivity analysis on a
	// fixed binding (resample) where churn_rebind rebinds at every
	// snapshot. Shares of a traced round (the resample analysis is
	// measured by replaying each query's AnalyzeFinal calls without HTTP):
	//
	//	connectivity.analyze 66.2%  serve 12.0%  kademlia 11.3%
	//	client 6.4%  eventsim 2.1%  snapshot 1.4%  connectivity.bind 0.9%
	//	tracing overhead 4.6%  untraced round 1.70 s
	//	resample latency spent in analysis: 90.8%
	"serve_mix": serveMix{},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
