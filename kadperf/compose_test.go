package main

import (
	"context"
	"testing"
	"time"

	"kadre/internal/attack"
	"kadre/internal/churn"
	"kadre/internal/scenario"
)

// smallConfigs are small versions of the batch workloads' runs: traffic
// with drain churn (fig4_traffic) and membership churn with frequent
// snapshots (churn_rebind).
func smallConfigs() []scenario.Config {
	fig4 := scenario.TinyScale.Figure4(7).Configs[2]
	fig4.Size, fig4.ChurnPhase = 20, 10*time.Minute
	churnCfg := scenario.Config{
		Name: "small/churn", Seed: 9, Size: 30, K: 10, Staleness: 1,
		Setup: 10 * time.Minute, Stabilize: 10 * time.Minute, ChurnPhase: 20 * time.Minute,
		Churn: churn.Rate{Add: 3, Remove: 3}, SnapshotInterval: 5 * time.Minute, SampleFraction: 0.2,
	}
	return []scenario.Config{fig4, churnCfg}
}

func TestTracedRunMatchesScenarioRun(t *testing.T) {
	for _, cfg := range smallConfigs() {
		tr := newTracer()
		res, bound, c, err := tracedRun(context.Background(), cfg, tr, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if err := checkTraced(cfg, res); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
		_, want, err := scenario.RunBound(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if bound.FinalAvgSeed != want.FinalAvgSeed || bound.Final.N() != want.Final.N() {
			t.Errorf("%s: bound final (n=%d, seed %d), scenario.RunBound (n=%d, seed %d)",
				cfg.Name, bound.Final.N(), bound.FinalAvgSeed, want.Final.N(), want.FinalAvgSeed)
		}
		if c.Captures != len(res.Points) || c.DeliverCalls != int64(res.Network.Delivered) {
			t.Errorf("%s: counts %+v disagree with the result", cfg.Name, c)
		}
	}
}

func TestTracedSpansCoverTheRun(t *testing.T) {
	cfg := smallConfigs()[1]
	tr := newTracer()
	root := tr.Begin("sweep", 0, 0)
	if _, _, _, err := tracedRun(context.Background(), cfg, tr, root, 0); err != nil {
		t.Fatal(err)
	}
	tr.End(root)
	tree := newSpanTree(tr.Spans())
	self, by := tree.layerTimes(root)
	for _, name := range []string{"phase.setup", "phase.churn", "snapshot.CaptureSlots",
		"connectivity.BindNextSlots", "connectivity.AnalyzeSnapshot", "kademlia.Deliver"} {
		if by[name] <= 0 {
			t.Errorf("no time recorded under %s", name)
		}
	}
	total := 0.0
	for layer, s := range self {
		if s < 0 {
			t.Errorf("layer %s self time %v < 0", layer, s)
		}
		total += s
	}
	if wall := float64(tree.spans[root-1].busy()) / 1e9; total < 0.999*wall || total > 1.001*wall {
		t.Errorf("layer self times sum to %v, root span lasts %v", total, wall)
	}
}

func TestTracedRunRefusesAttacks(t *testing.T) {
	exp := scenario.TinyScale.AttackExperiment(1, []attack.Strategy{attack.Random})
	if _, _, _, err := tracedRun(context.Background(), exp.Configs[0], newTracer(), 0, 0); err == nil {
		t.Error("traced run of an attack config succeeded")
	}
}
