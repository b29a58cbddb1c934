package main

import (
	"fmt"
	"io"
	"os"

	"kadre/internal/report"
	"kadre/internal/scenario"
	"kadre/internal/sweep"
)

// renderAttack renders an adversarial experiment: degradation charts
// against nodes removed and the attack summary table, per run for a
// single replication and as cross-replication means otherwise.
func renderAttack(w io.Writer, exp scenario.Experiment, reps int, sets []*sweep.RunSet) error {
	if reps > 1 {
		if err := report.AggDegradationChart(w, exp.Title+" — min connectivity vs removed (mean of reps)", sets, 14); err != nil {
			return err
		}
		fmt.Fprintln(w)
		header, rows := report.AttackTableReps(sets)
		fmt.Fprintln(w, "Attack summary (cross-replication means)")
		return report.WriteTable(w, header, rows)
	}
	results := make([]*scenario.Result, len(sets))
	for i, rs := range sets {
		results[i] = rs.Reps[0]
	}
	if err := report.DegradationChart(w, exp.Title+" — minimum connectivity", results, 14); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := report.SCCDegradationChart(w, exp.Title+" — largest-SCC fraction", results, 14); err != nil {
		return err
	}
	fmt.Fprintln(w)
	header, rows := report.AttackTable(results)
	fmt.Fprintln(w, "Attack summary")
	if err := report.WriteTable(w, header, rows); err != nil {
		return err
	}
	for _, r := range results {
		fmt.Fprintf(w, "\n%s\n", r.Config.Name)
		header, rows := report.AttackSnapshotRows(r)
		if err := report.WriteTable(w, header, rows); err != nil {
			return err
		}
	}
	return nil
}

func writeDegradationCSV(path string, r *scenario.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintln(f, "t_min,removed,n,edges,min_conn,avg_conn,scc_frac"); err != nil {
		return err
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(f, "%.0f,%d,%d,%d,%d,%.3f,%.4f\n",
			p.Time.Minutes(), p.Removed, p.N, p.Edges, p.Min, p.Avg, p.SCC); err != nil {
			return err
		}
	}
	return f.Close()
}

// writeSummaryCSV compares the adversaries of one experiment: per run,
// the cross-replication means of removals, the churn-window minimum
// connectivity, and the final snapshot's metrics.
func writeSummaryCSV(path string, sets []*sweep.RunSet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintln(f, "strategy,reps,removed_mean,churn_window_min_mean,final_min_mean,final_scc_mean"); err != nil {
		return err
	}
	for _, rs := range sets {
		var removed, finalMin, finalSCC, winMean float64
		for _, r := range rs.Reps {
			removed += float64(r.AttackRemoved)
			winMean += r.ChurnWindowSummary().Mean
			if len(r.Points) > 0 {
				finalMin += float64(r.Points[len(r.Points)-1].Min)
				finalSCC += r.Points[len(r.Points)-1].SCC
			}
		}
		n := float64(len(rs.Reps))
		if _, err := fmt.Fprintf(f, "%s,%d,%.1f,%.3f,%.2f,%.4f\n",
			rs.Config.Attack.Strategy, len(rs.Reps), removed/n, winMean/n, finalMin/n, finalSCC/n); err != nil {
			return err
		}
	}
	return f.Close()
}
