package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

func TestRoundQueriesArePureInTheSeed(t *testing.T) {
	for r := 0; r < 5; r++ {
		a, b := roundQueries(42, r), roundQueries(42, r)
		if len(a) != mixCold+mixResample+mixWarm {
			t.Fatalf("round %d has %d queries", r, len(a))
		}
		for i := range a {
			if a[i].Class != b[i].Class || !bytes.Equal(a[i].Body, b[i].Body) || a[i].Of != b[i].Of {
				t.Fatalf("round %d query %d differs between calls", r, i)
			}
		}
		other := roundQueries(43, r)
		same := true
		for i := range a {
			same = same && bytes.Equal(a[i].Body, other[i].Body)
		}
		if same {
			t.Errorf("round %d is the same for seeds 42 and 43", r)
		}
	}
}

// TestQuerySeedsNeverRepeat checks the properties the mix's classes
// rest on: a resample query never repeats a (fraction, seed) pair the
// arena has memoized (from an earlier round or a set-up warm-up), a cold
// query never repeats a scenario the arena has seen, and a warm query
// repeats one of its round's queries byte for byte.
func TestQuerySeedsNeverRepeat(t *testing.T) {
	for _, seed := range []int64{defaultSeed, 2, -5} {
		resampled := map[int64]bool{}
		scenarios := map[int64]bool{}
		for i := 0; i < mixEntries; i++ {
			scenarios[mixSeed(seed, kindEntry, i)] = true
		}
		for n := 0; n < setupReps; n++ {
			resampled[mixSeed(seed, kindSetupResample, n)] = true
			scenarios[mixSeed(seed, kindSetupCold, n)] = true
		}
		for r := 0; r < 300; r++ {
			qs := roundQueries(seed, r)
			for i, q := range qs {
				switch q.Class {
				case "resample":
					if q.Resample == 0 || resampled[q.Resample] {
						t.Fatalf("seed %d round %d query %d repeats resample seed %d", seed, r, i, q.Resample)
					}
					resampled[q.Resample] = true
				case "cold":
					if scenarios[q.Scenario] {
						t.Fatalf("seed %d round %d query %d repeats scenario %d", seed, r, i, q.Scenario)
					}
					scenarios[q.Scenario] = true
				case "warm":
					if q.Of >= i || qs[q.Of].Class == "warm" || !bytes.Equal(q.Body, qs[q.Of].Body) {
						t.Fatalf("seed %d round %d warm query %d does not repeat an earlier query", seed, r, i)
					}
				}
			}
		}
	}
}

// TestServeMixRound runs the workload for one untraced and one traced
// round: cold queries never hit the arena, resample and warm queries
// always do, warm repeats return the repeated values, sampled answers
// match scenario.Run and the reference arena, and every traced build
// matches scenario.Run.
func TestServeMixRound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve_mix workload")
	}
	out, err := serveMix{}.run(options{workload: "serve_mix", seed: 3, seconds: 0.01, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed != 0 || len(out.Problems) != 0 {
		t.Fatalf("%d of %d operations failed: %v", out.Failed, out.Attempted, out.Problems)
	}
	if out.Values["serve.arena_misses"] != mixCold*mixReps || out.Values["serve.cold_p50_ms"] <= 0 {
		t.Errorf("traced round: %v arena misses, cold p50 %v ms", out.Values["serve.arena_misses"], out.Values["serve.cold_p50_ms"])
	}
}

// TestMetricTablesMatchBenchmark keeps the metric tables and
// BENCHMARK.json in step.
func TestMetricTablesMatchBenchmark(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the table %d", len(c.got), len(c.want))
		}
		for i, m := range c.want {
			if g := c.got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("metric %d: BENCHMARK.json %+v, table %+v", i, g, m)
			}
		}
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if got, want := len(names), len(workloads); got != want {
		t.Errorf("BENCHMARK.json names %d workloads, kadperf has %d", got, want)
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a kadperf workload", n)
		}
	}
}
