// Command kadsweep regenerates the paper's figures and tables. Each
// experiment id maps to one artefact of the evaluation section (see
// DESIGN.md's experiment index); the output is the paper's tables as text
// and the figures as ASCII charts plus per-run measurement tables.
//
// Runs execute on the parallel sweep engine (internal/sweep): the
// experiment's configurations — times the replication count — fan out
// across -jobs workers. Every run is deterministic in its seed and the
// engine reassembles results in input order, so the output is identical
// for any -jobs value; only wall-clock time changes. With -exp all,
// every experiment's runs share ONE worker pool (sweep.RunGroups):
// progress lines carry an experiment prefix and rendering happens per
// experiment after the pooled sweep drains, so cores stay busy through
// each experiment's tail instead of idling at every boundary.
//
// Replication (-reps R) repeats every configuration R times with derived
// seeds, matching the paper's repeated-run methodology: rep 0 uses the
// configuration's own seed (so -reps 1 reproduces historical single runs
// exactly) and reps >= 1 use a splitmix64-derived seed stream. Replicated
// sweeps report the cross-run mean and two-sided 95% Student-t confidence
// interval per snapshot instant, both in the tables and as the dotted
// band of the ASCII charts.
//
// Adversarial experiments — every run carries an attack block, like
// -exp attack or a spec such as specs/attack_cutset.json — compare how
// fast each adversary degrades the paper's resilience metrics per node
// removed. kadsweep detects them from the experiment itself and renders
// degradation charts (minimum connectivity and largest-SCC fraction vs
// removed) with an attack summary table; their per-run CSVs carry the
// degradation columns t_min,removed,n,edges,min_conn,avg_conn,scc_frac
// and a <exp>_summary.csv compares the adversaries. Custom adversaries
// (strategy, budget, kills, strike interval) are spec files.
//
// Flags:
//
//	-exp id       experiment to run (see -list), or 'all'
//	-scenario f   scenario spec file (JSON) to run instead of -exp: the
//	              versioned workload.Spec format composing churn, traffic,
//	              attack and generative-workload knobs (see README
//	              "scenario specs"; committed presets live under specs/,
//	              worked examples under examples/)
//	-scale s      paper, reduced, tiny (default reduced); a spec file
//	              may pin its own scale, which then wins
//	-seed n       base seed (default 1)
//	-reps r       seed replications per configuration (default 1)
//	-jobs j       concurrent runs; 0 means GOMAXPROCS (default 0)
//	-csv dir      write one CSV per run (and per-config aggregate CSVs
//	              when -reps > 1, or the summary CSV of an adversarial
//	              experiment)
//	-json dir     write one JSON document per experiment
//	-checkpoint d persist every completed run to directory d and, on a
//	              later invocation, replay finished runs from disk
//	              instead of re-executing them (sweep resume)
//	-ci-stop f    adaptive replication: per configuration, stop early
//	              once the 95% CI half-width of the churn-window mean
//	              min connectivity is at most f times its mean; -reps
//	              becomes the rep budget (requires -reps >= 2, not
//	              combinable with -checkpoint). Stop indices depend only
//	              on seeds and accumulated statistics, so artefacts stay
//	              identical for any -jobs value.
//	-max-dead-frac f  re-densify analysis arc stores above this dead
//	              fraction; <= 0 disables (default 0.5)
//	-max-slot-slack f compact slot tables above this vacancy/live
//	              ratio; <= 0 disables (default 0.5). Disabling both
//	              drops the "memory" block from the JSON document.
//	-list         list experiments and exit
//	-quiet        suppress progress lines
//
// The JSON document (one per experiment, named <exp>.json) contains:
//
//	{
//	  "experiment": "figure2", "title": "...", "scale": "tiny",
//	  "reps": 3,
//	  "runs": [{
//	    "name": "SimA/k=5", "base_seed": 1,
//	    "size": 40, "k": 5, "churn": "0/1", "loss": "none", "traffic": false,
//	    "reps": [{"seed": 1, "points": [{"t_min", "n", "edges",
//	              "min_conn", "avg_conn", "symmetry"}, ...],
//	              "churn_added", "churn_removed", "traffic_ops",
//	              "msg_sent", "msg_lost"}, ...],
//	    "aggregate": {
//	      "min_conn": [{"t_min", "mean", "std", "ci95", "min", "max"}, ...],
//	      "avg_conn": [...], "size": [...],
//	      "churn_window": {"rep_means": [...], "mean", "ci95"}
//	    }
//	  }, ...]
//	}
//
// Statistics that are undefined (the CI of a single replication) encode
// as null. Wall-clock timings and the worker count are excluded, so the
// same sweep always produces byte-identical JSON.
//
// Examples:
//
//	kadsweep -list
//	kadsweep -exp table1
//	kadsweep -exp figure2 -scale tiny
//	kadsweep -exp figure2 -scale tiny -reps 3 -jobs 4
//	kadsweep -exp figure6 -scale reduced -reps 5 -csv out/ -json out/
//	kadsweep -exp attack -scale tiny -reps 3 -csv out/ -json out/
//	kadsweep -scenario examples/attack_budget.json -scale tiny
//	kadsweep -exp all -scale tiny
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"kadre/internal/connectivity"
	"kadre/internal/report"
	"kadre/internal/scenario"
	"kadre/internal/stats"
	"kadre/internal/sweep"
	"kadre/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kadsweep:", err)
		os.Exit(1)
	}
}

// options carries the resolved flag set through one invocation.
type options struct {
	scale   scenario.Scale
	seed    int64
	reps    int
	jobs    int
	csvDir  string
	jsonDir string
	ckpt    *sweep.Checkpointer
	gov     connectivity.GovernancePolicy
	ciStop  float64
	quiet   bool
	stdout  io.Writer
}

func run(args []string, stdout io.Writer) error {
	// Flag diagnostics (usage, parse errors) stay on the FlagSet's stderr
	// default; stdout carries only the program's results.
	fs := flag.NewFlagSet("kadsweep", flag.ContinueOnError)
	var (
		expID     = fs.String("exp", "", "experiment id (see -list), or 'all'")
		scenFile  = fs.String("scenario", "", "scenario spec file (JSON) to run instead of a compiled-in experiment")
		scaleName = fs.String("scale", "reduced", "scale: paper, reduced, tiny")
		seed      = fs.Int64("seed", 1, "base seed")
		reps      = fs.Int("reps", 1, "seed replications per configuration")
		jobs      = fs.Int("jobs", 0, "concurrent runs (0 = GOMAXPROCS)")
		csvDir    = fs.String("csv", "", "directory for per-run CSV series")
		jsonDir   = fs.String("json", "", "directory for per-experiment JSON results")
		ckptDir   = fs.String("checkpoint", "", "directory for per-run checkpoints (resume support)")
		ciStop    = fs.Float64("ci-stop", 0, "adaptive replication: stop a config's reps once the 95% CI half-width is at most this fraction of the mean churn-window min connectivity (0 = fixed -reps)")
		deadFrac  = fs.Float64("max-dead-frac", 0.5, "re-densify analysis arc stores above this dead fraction (<= 0 disables)")
		slotSlack = fs.Float64("max-slot-slack", 0.5, "compact slot tables above this vacancy/live ratio (<= 0 disables)")
		list      = fs.Bool("list", false, "list experiments and exit")
		quiet     = fs.Bool("quiet", false, "suppress progress lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *reps < 1 {
		return fmt.Errorf("-reps %d must be >= 1", *reps)
	}
	if *jobs < 0 {
		return fmt.Errorf("-jobs %d must be >= 0", *jobs)
	}
	if *ciStop < 0 {
		return fmt.Errorf("-ci-stop %v must be >= 0", *ciStop)
	}
	if *ciStop > 0 && *reps < 2 {
		return fmt.Errorf("-ci-stop needs -reps >= 2 (the rep budget a decision may stop short of)")
	}
	if *ciStop > 0 && *ckptDir != "" {
		return fmt.Errorf("-ci-stop cannot be combined with -checkpoint (adaptive rep counts would invalidate resumed fixed-R checkpoints)")
	}

	scale, err := scenario.ScaleByName(*scaleName)
	if err != nil {
		return err
	}
	opts := options{
		scale: scale, seed: *seed, reps: *reps, jobs: *jobs,
		csvDir: *csvDir, jsonDir: *jsonDir, quiet: *quiet, stdout: stdout,
		gov:    connectivity.PolicyFromKnobs(*deadFrac, *slotSlack),
		ciStop: *ciStop,
	}
	if *ckptDir != "" {
		if opts.ckpt, err = sweep.NewCheckpointer(*ckptDir); err != nil {
			return err
		}
	}

	if *list {
		fmt.Fprintln(stdout, "available experiments (paper artefact -> id):")
		fmt.Fprintln(stdout, "  table1    Table 1 (message-loss scenarios; static)")
		for _, e := range scale.Experiments(*seed) {
			fmt.Fprintf(stdout, "  %-9s %s (%d runs)\n", e.ID, e.Title, len(e.Configs))
		}
		return nil
	}
	if *expID != "" && *scenFile != "" {
		return fmt.Errorf("-exp and -scenario are mutually exclusive")
	}
	if *expID == "" && *scenFile == "" {
		return fmt.Errorf("-exp or -scenario is required (try -list)")
	}

	for _, dir := range []string{*csvDir, *jsonDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
	}

	// A scenario spec file is one experiment resolved through the same
	// scale defaulting as the compiled-in presets: a committed spec of a
	// preset produces byte-identical artefacts. The spec may pin its own
	// scale; otherwise -scale applies.
	if *scenFile != "" {
		sp, err := workload.Load(*scenFile)
		if err != nil {
			return err
		}
		if sp.Scale != "" {
			if opts.scale, err = scenario.ScaleByName(sp.Scale); err != nil {
				return err
			}
		}
		exp, err := scenario.FromSpec(sp, opts.scale, opts.seed)
		if err != nil {
			return err
		}
		return sweepExperiments([]scenario.Experiment{exp}, opts)
	}

	if *expID == "table1" {
		header, rows := report.Table1()
		fmt.Fprintln(stdout, "Table 1: message loss scenarios")
		return report.WriteTable(stdout, header, rows)
	}

	ids := []string{*expID}
	if *expID == "all" {
		ids = ids[:0]
		for _, e := range scale.Experiments(*seed) {
			ids = append(ids, e.ID)
		}
		header, rows := report.Table1()
		fmt.Fprintln(stdout, "Table 1: message loss scenarios")
		if err := report.WriteTable(stdout, header, rows); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	return runExperiments(ids, opts)
}

// runExperiments sweeps the given experiments through ONE shared worker
// pool (sweep.RunGroups): with -exp all, runs from the next experiment
// backfill idle workers while the previous experiment's stragglers
// finish, instead of draining the pool at every experiment boundary.
// Rendering and artefact writing happen per experiment, in input order,
// after all runs complete.
func runExperiments(ids []string, opts options) error {
	exps := make([]scenario.Experiment, len(ids))
	for i, eid := range ids {
		exp, err := opts.scale.ExperimentByID(eid, opts.seed)
		if err != nil {
			return err
		}
		exps[i] = exp
	}
	return sweepExperiments(exps, opts)
}

// sweepExperiments executes already-resolved experiments — compiled-in
// presets and spec files share this path, so both get the pooled sweep,
// rendering, and artefact writing.
func sweepExperiments(exps []scenario.Experiment, opts options) error {
	groups := make([]sweep.Group, len(exps))
	totalConfigs := 0
	for i := range exps {
		// The governance knobs apply to every run (adversaries inherit the
		// policy for their recon slot tables and engines through the
		// scenario defaulting).
		for ci := range exps[i].Configs {
			exps[i].Configs[ci].Governance = opts.gov
		}
		groups[i] = sweep.Group{Name: exps[i].ID, Configs: exps[i].Configs}
		totalConfigs += len(exps[i].Configs)
	}

	pooled := len(exps) > 1
	repsLabel := fmt.Sprintf("%d reps", opts.reps)
	if opts.ciStop > 0 {
		repsLabel = fmt.Sprintf("<= %d adaptive reps (ci-stop %g)", opts.reps, opts.ciStop)
	}
	if pooled {
		fmt.Fprintf(opts.stdout, "=== pooled sweep: %d experiments, %d configs x %s (scale %s, jobs %d) ===\n",
			len(exps), totalConfigs, repsLabel, opts.scale.Name, opts.jobs)
	} else {
		exp := exps[0]
		fmt.Fprintf(opts.stdout, "=== %s: %s (scale %s, %d configs x %s, jobs %d) ===\n",
			exp.ID, exp.Title, opts.scale.Name, len(exp.Configs), repsLabel, opts.jobs)
	}
	start := time.Now()

	// On failure both executors still hand back every experiment whose
	// runs all completed; render and persist those before reporting the
	// error, so a pooled -exp all sweep does not discard hours of
	// finished work.
	var allSets [][]*sweep.RunSet
	var runErr error
	if opts.ciStop > 0 {
		allSets, runErr = runAdaptiveGroups(exps, opts, pooled)
	} else {
		swOpts := sweep.Options{Reps: opts.reps, Jobs: opts.jobs, Checkpoint: opts.ckpt}
		if !opts.quiet {
			swOpts.Progress = func(ev sweep.Event) {
				status := fmt.Sprintf("%v", ev.Elapsed.Round(time.Millisecond))
				if ev.Cached {
					status = "checkpoint"
				}
				if ev.Err != nil {
					status = "FAILED: " + ev.Err.Error()
				}
				name := ev.Name
				if pooled {
					name = ev.Experiment + "/" + name
				}
				fmt.Fprintf(opts.stdout, "  [%d/%d] %s rep %d seed %d (%s)\n",
					ev.Done, ev.Total, name, ev.Rep, ev.Seed, status)
			}
		}
		allSets, runErr = sweep.RunGroups(groups, swOpts)
	}
	finished := fmt.Sprintf("%d experiments", len(exps))
	if !pooled {
		finished = exps[0].ID
	}
	if runErr != nil {
		fmt.Fprintf(opts.stdout, "--- %s FAILED after %v; writing completed experiments ---\n\n",
			finished, time.Since(start).Round(time.Second))
	} else {
		fmt.Fprintf(opts.stdout, "--- %s finished in %v ---\n\n", finished, time.Since(start).Round(time.Second))
	}

	for i, exp := range exps {
		sets := allSets[i]
		if sets == nil {
			continue // incomplete: some run failed or was skipped
		}
		if opts.csvDir != "" {
			if err := writeCSVs(opts.csvDir, exp, sets); err != nil {
				return err
			}
		}
		if opts.jsonDir != "" {
			if err := writeJSONFile(opts.jsonDir, exp, opts, sets); err != nil {
				return err
			}
		}
		if pooled {
			fmt.Fprintf(opts.stdout, "=== %s: %s ===\n", exp.ID, exp.Title)
		}
		if err := render(opts.stdout, exp, opts.reps, sets); err != nil {
			return err
		}
		if pooled {
			fmt.Fprintln(opts.stdout)
		}
	}
	return runErr
}

// runAdaptiveGroups is the -ci-stop executor: every configuration
// replicates adaptively (internal/sweep.RunAdaptive) until the 95% CI of
// its churn-window mean min connectivity is within opts.ciStop of the
// mean, or the -reps budget runs out. Replications of one config fan out
// across -jobs workers; configs execute in order. The stop index depends
// only on seeds and accumulated statistics, so rep counts and every
// artefact are identical under any -jobs value. Experiments completed
// before a failure keep their RunSets, mirroring sweep.RunGroups.
func runAdaptiveGroups(exps []scenario.Experiment, opts options, pooled bool) ([][]*sweep.RunSet, error) {
	minReps := 3
	if opts.reps < minReps {
		minReps = opts.reps
	}
	out := make([][]*sweep.RunSet, len(exps))
	for gi, exp := range exps {
		sets := make([]*sweep.RunSet, len(exp.Configs))
		for ci, cfg := range exp.Configs {
			name := cfg.Name
			if pooled {
				name = exp.ID + "/" + name
			}
			ar, err := sweep.RunAdaptive(context.Background(), cfg, sweep.AdaptiveOptions{
				Rule:    sweep.StopAtPrecision(opts.ciStop),
				Extract: func(r *scenario.Result) float64 { return r.ChurnWindowSummary().Mean },
				MinReps: minReps, MaxReps: opts.reps, Jobs: opts.jobs,
				Progress: func(u sweep.RepUpdate) {
					if opts.quiet {
						return
					}
					ci95 := "n/a"
					if u.Reps >= 2 {
						ci95 = fmt.Sprintf("%.4f", u.CI95)
					}
					status := fmt.Sprintf("%v", u.Elapsed.Round(time.Millisecond))
					if u.Decided {
						status += fmt.Sprintf("; %s after %d reps", u.Verdict, u.Reps)
					}
					fmt.Fprintf(opts.stdout, "  %s rep %d seed %d churn-mean %.3f ci95 %s (%s)\n",
						name, u.Rep, u.Seed, u.Value, ci95, status)
				},
			})
			if err != nil {
				return out, err
			}
			if sets[ci], err = ar.RunSet(); err != nil {
				return out, err
			}
		}
		out[gi] = sets
	}
	return out, nil
}

// adversarial reports whether every run of exp carries an adversary: such
// experiments render and export degradation-by-removal output.
func adversarial(exp scenario.Experiment) bool {
	for _, cfg := range exp.Configs {
		if !cfg.Attack.Enabled() {
			return false
		}
	}
	return len(exp.Configs) > 0
}

func render(w io.Writer, exp scenario.Experiment, reps int, sets []*sweep.RunSet) error {
	if adversarial(exp) {
		return renderAttack(w, exp, reps, sets)
	}
	if reps > 1 {
		return renderAggregated(w, exp, sets)
	}
	// Single-rep sweeps keep the historical per-run rendering.
	results := make([]*scenario.Result, len(sets))
	for i, rs := range sets {
		results[i] = rs.Reps[0]
	}
	switch exp.ID {
	case "table2":
		header, rows := report.Table2(results)
		fmt.Fprintln(w, "Table 2: means and relative variance of min connectivity during churn")
		return report.WriteTable(w, header, rows)
	case "figure10":
		header, rows := report.MeansByK(results)
		fmt.Fprintln(w, "Figure 10: means of the minimum connectivity during churn")
		return report.WriteTable(w, header, rows)
	case "bitlength":
		header, rows := report.MeansByK(results)
		fmt.Fprintln(w, "§5.7: bit-length comparison (expect no significant difference)")
		return report.WriteTable(w, header, rows)
	default:
		// Figure-style output: min- and avg-connectivity charts over all
		// runs, then per-run tables.
		var minSeries, avgSeries []*stats.Series
		for _, r := range results {
			minSeries = append(minSeries, r.MinSeries())
			avgSeries = append(avgSeries, r.AvgSeries())
		}
		if err := report.Chart(w, exp.Title+" — minimum connectivity", minSeries, 14); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if err := report.Chart(w, exp.Title+" — average connectivity", avgSeries, 14); err != nil {
			return err
		}
		for _, r := range results {
			fmt.Fprintf(w, "\n%s\n", r.Config.Name)
			header, rows := report.SnapshotRows(r)
			if err := report.WriteTable(w, header, rows); err != nil {
				return err
			}
		}
		return nil
	}
}

func renderAggregated(w io.Writer, exp scenario.Experiment, sets []*sweep.RunSet) error {
	switch exp.ID {
	case "table2":
		header, rows := report.Table2Reps(sets)
		fmt.Fprintln(w, "Table 2: mean (±95% CI) and relative variance of min connectivity during churn")
		return report.WriteTable(w, header, rows)
	case "figure10":
		header, rows := report.MeansByKReps(sets)
		fmt.Fprintln(w, "Figure 10: means (±95% CI) of the minimum connectivity during churn")
		return report.WriteTable(w, header, rows)
	case "bitlength":
		header, rows := report.MeansByKReps(sets)
		fmt.Fprintln(w, "§5.7: bit-length comparison (expect no significant difference)")
		return report.WriteTable(w, header, rows)
	default:
		var minAgg, avgAgg []*stats.AggregateSeries
		for _, rs := range sets {
			minAgg = append(minAgg, rs.Min)
			avgAgg = append(avgAgg, rs.Avg)
		}
		if err := report.AggChart(w, exp.Title+" — minimum connectivity (mean of reps)", minAgg, 14); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if err := report.AggChart(w, exp.Title+" — average connectivity (mean of reps)", avgAgg, 14); err != nil {
			return err
		}
		for _, rs := range sets {
			fmt.Fprintf(w, "\n%s (%d reps)\n", rs.Config.Name, len(rs.Reps))
			header, rows := report.AggregateSnapshotRows(rs)
			if err := report.WriteTable(w, header, rows); err != nil {
				return err
			}
		}
		return nil
	}
}

// csvName flattens a run name into a file name.
func csvName(name string) string {
	return strings.NewReplacer("/", "_", "=", "").Replace(name)
}

// writeCSVs writes one CSV per replication (rep 0 keeps the historical
// file name). Adversarial experiments get the degradation schema plus a
// cross-adversary <exp>_summary.csv; the others get a per-config
// aggregate CSV when there are multiple reps.
func writeCSVs(dir string, exp scenario.Experiment, sets []*sweep.RunSet) error {
	attack := adversarial(exp)
	write := writeCSV
	if attack {
		write = writeDegradationCSV
	}
	for _, rs := range sets {
		for rep, r := range rs.Reps {
			name := csvName(rs.Config.Name)
			if rep > 0 {
				name = fmt.Sprintf("%s_r%d", name, rep)
			}
			if err := write(filepath.Join(dir, name+".csv"), r); err != nil {
				return err
			}
		}
		if !attack && len(rs.Reps) > 1 {
			if err := writeAggCSV(filepath.Join(dir, csvName(rs.Config.Name)+"_agg.csv"), rs); err != nil {
				return err
			}
		}
	}
	if attack {
		return writeSummaryCSV(filepath.Join(dir, exp.ID+"_summary.csv"), sets)
	}
	return nil
}

func writeCSV(path string, r *scenario.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintln(f, "t_min,n,edges,min_conn,avg_conn,symmetry"); err != nil {
		return err
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(f, "%.0f,%d,%d,%d,%.3f,%.4f\n",
			p.Time.Minutes(), p.N, p.Edges, p.Min, p.Avg, p.Symmetry); err != nil {
			return err
		}
	}
	return f.Close()
}

func writeAggCSV(path string, rs *sweep.RunSet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintln(f, "t_min,reps,n_mean,min_mean,min_std,min_ci95,avg_mean,avg_std,avg_ci95"); err != nil {
		return err
	}
	for i := range rs.Min.Points {
		mp, ap, sp := rs.Min.Points[i], rs.Avg.Points[i], rs.Size.Points[i]
		if _, err := fmt.Fprintf(f, "%.0f,%d,%.2f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f\n",
			mp.T.Minutes(), mp.N, sp.Mean, mp.Mean, mp.Std, mp.CI95, ap.Mean, ap.Std, ap.CI95); err != nil {
			return err
		}
	}
	return f.Close()
}

func writeJSONFile(dir string, exp scenario.Experiment, opts options, sets []*sweep.RunSet) error {
	f, err := os.Create(filepath.Join(dir, exp.ID+".json"))
	if err != nil {
		return err
	}
	defer f.Close()
	meta := sweep.JSONMeta{Experiment: exp.ID, Title: exp.Title, Scale: opts.scale.Name}
	if err := sweep.WriteJSON(f, meta, sets); err != nil {
		return err
	}
	return f.Close()
}
