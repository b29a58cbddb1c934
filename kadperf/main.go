// Command kadperf is kadre's end-to-end benchmark. It drives kadre only
// through its public packages, from a single process, on one of three
// workloads (see workloads.go):
//
//	kadperf --workload fig4_traffic --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it measures the end-to-end metrics untraced; with
// --trace 1 it runs traced and untraced units side by side, reports the
// per-layer metrics, prints a layer attribution and writes every span to
// the output directory. The last line of standard output is a JSON
// object {"correct", "attempted", "failed", "metrics"}; the lines before
// it record the environment, each unit and the attribution.
//
// run.sh builds the binary from the enclosing checkout and runs it.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options are the command-line arguments of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

// outcome is what a workload run reports.
type outcome struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Values    map[string]float64 `json:"values"`
	// Units are the measured units' records, Attribution the traced
	// layer shares, Spans every recorded span (traced runs only).
	Units       []map[string]float64 `json:"units"`
	Attribution []attributionRow     `json:"attribution,omitempty"`
	Spans       []Span               `json:"spans,omitempty"`
}

// failf records a failed check.
func (o *outcome) failf(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

// environment identifies where and on what a result was measured.
type environment struct {
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Commit     string  `json:"commit"`
	Source     string  `json:"source_sha256"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func captureEnv(o options) environment {
	env := environment{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	env.Source = sourceDigest()
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					env.Commit += "+modified"
				}
			}
		}
	}
	return env
}

// sourceDigest identifies the measured code where no commit is recorded
// (a checkout that is not a git repository): the SHA-256 of every Go
// source and go.mod file under the working directory, in path order.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == ".bench_build" || path == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resetPeakRSS restarts the kernel's record of the process's peak
// resident set size, so that peakRSSMB reports the peak of what runs
// after it. Where the kernel offers no reset, peakRSSMB reports the
// process's lifetime peak instead.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set size since the last resetPeakRSS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed; every input is generated from it")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured time per run, in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced end-to-end run")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "kadperf"), "directory for the result and span files")
	flag.Parse()
	o.trace = *trace == 1
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "kadperf: usage: kadperf --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "kadperf: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	env := captureEnv(o)
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)

	out, err := w.run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kadperf: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, p := range out.Problems {
		fmt.Printf("FAILED CHECK: %s\n", p)
	}
	if err := writeResult(o, env, out); err != nil {
		fmt.Fprintf(os.Stderr, "kadperf: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(out.Problems) == 0 && out.Failed == 0, out.Attempted, out.Failed, fill(defs, out.Values)})
	if err != nil {
		fmt.Fprintf(os.Stderr, "kadperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// writeResult writes the environment, the outcome and (traced) the spans
// to one file in the output directory.
func writeResult(o options, env environment, out *outcome) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if o.trace {
		mode = "trace"
	}
	name := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-%s-%s.json", o.workload, o.seed, mode, time.Now().UTC().Format("20060102T150405")))
	b, err := json.Marshal(struct {
		Env     environment `json:"env"`
		Outcome *outcome    `json:"outcome"`
	}{env, out})
	if err != nil {
		return err
	}
	if err := os.WriteFile(name, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("result file %s\n", name)
	return nil
}
