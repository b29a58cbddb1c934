package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kadre/internal/scenario"
	"kadre/internal/serve"
	"kadre/internal/sweep"
)

// serveMix is the serve_mix workload: serve.NewServer behind loopback
// HTTP, and one closed-loop client sending rounds of a seed-generated
// query sequence. Each round sends mixCold cold and mixResample resample
// queries in a seed-shuffled order, then a burst of mixWarm warm ones:
//
//   - cold: a never-seen tiny scenario (size 40, 1/1 churn for 20
//     simulated minutes) with fixed replications, so every replication
//     simulates and inserts a new arena entry.
//   - resample: final_avg with a fresh (fraction, seed) on one of the
//     size-100 scenarios warmed at set-up, so every replication is an
//     arena hit that runs AnalyzeSnapshot on a fixed binding, with no
//     simulation and no rebind.
//   - warm: an exact repeat of one of the round's cold or resample
//     queries, answered from the arena and its resample memo with no
//     simulation and no analysis.
//
// The server runs replications one at a time (Options.Jobs 1), so a
// query's latency is the sum of its replications.
type serveMix struct{}

const (
	mixCold          = 8
	mixResample      = 8
	mixWarm          = 1000
	mixEntries       = 2   // size-100 scenarios warmed at set-up
	mixReps          = 2   // replications per query: min_reps = max_reps
	resampleFraction = 0.1 // connectivity sampling c of resample queries
	// mixBudget bounds the arena, so that its resident set, and the
	// process's peak memory, stop growing after a few rounds instead of
	// growing with the number of rounds a run fits.
	mixBudget = 16 << 20
)

// Seed kinds: every scenario or resample seed the mix sends is
// mixSeed(seed, kind, n), unique per (kind, n).
const (
	kindEntry = iota
	kindCold
	kindResample
	kindSetupCold
	kindSetupResample
)

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// mixSeed returns the n-th seed of a kind for a workload seed: 20 bits
// derived from the workload seed, 4 bits of kind and 28 bits of n, so
// distinct (kind, n) never collide and no seed is 0 (which a query would
// read as "default").
func mixSeed(seed int64, kind, n int) int64 {
	hi := int64(splitmix(uint64(seed))%(1<<20)) + 1
	return hi<<32 | int64(kind)<<28 | int64(n)
}

// mixQuery is one query of the sequence.
type mixQuery struct {
	Class string // cold, resample or warm
	Body  []byte
	// Scenario is the scenario seed of a cold or resample query;
	// Resample the resample seed of a resample query; Of the index, in
	// the round, of the query a warm query repeats.
	Scenario int64
	Resample int64
	Of       int
}

func precision() *float64 { p := 0.5; return &p }

func noStream() *bool { b := false; return &b }

// entrySpec is the query that warms one size-100 arena scenario.
func entrySpec(scenarioSeed int64) serve.QuerySpec {
	return serve.QuerySpec{
		Scenario:  serve.ScenarioSpec{Scale: "tiny", Size: 100, Seed: scenarioSeed},
		Metric:    serve.MetricFinalAvg,
		Precision: precision(), MinReps: mixReps, MaxReps: mixReps, Stream: noStream(),
	}
}

func resampleSpec(scenarioSeed, resampleSeed int64) serve.QuerySpec {
	qs := entrySpec(scenarioSeed)
	qs.Resample = &serve.ResampleSpec{Fraction: resampleFraction, Seed: resampleSeed}
	return qs
}

func coldSpec(scenarioSeed int64) serve.QuerySpec {
	return serve.QuerySpec{
		Scenario:  serve.ScenarioSpec{Scale: "tiny", Churn: "1/1", ChurnMinutes: 20, Seed: scenarioSeed},
		Metric:    serve.MetricChurnMinMean,
		Precision: precision(), MinReps: mixReps, MaxReps: mixReps, Stream: noStream(),
	}
}

func mustBody(qs serve.QuerySpec) []byte {
	b, err := json.Marshal(qs)
	if err != nil {
		panic(err) // a QuerySpec of plain fields always marshals
	}
	return b
}

func coldQuery(s int64) mixQuery {
	return mixQuery{Class: "cold", Body: mustBody(coldSpec(s)), Scenario: s}
}

func resampleQuery(entry, s int64) mixQuery {
	return mixQuery{Class: "resample", Body: mustBody(resampleSpec(entry, s)), Scenario: entry, Resample: s}
}

// roundQueries returns round r of the query sequence of a workload
// seed. It is a pure function of (seed, r).
func roundQueries(seed int64, r int) []mixQuery {
	rng := rand.New(rand.NewSource(int64(splitmix(uint64(seed) ^ splitmix(uint64(r)+1)))))
	classes := make([]string, 0, mixCold+mixResample)
	for i := 0; i < mixCold; i++ {
		classes = append(classes, "cold")
	}
	for i := 0; i < mixResample; i++ {
		classes = append(classes, "resample")
	}
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	qs := make([]mixQuery, 0, len(classes)+mixWarm)
	nc, nr := 0, 0
	for _, c := range classes {
		if c == "cold" {
			qs = append(qs, coldQuery(mixSeed(seed, kindCold, r*mixCold+nc)))
			nc++
			continue
		}
		// Resample queries visit the warmed scenarios in turn, so every
		// round touches each of them and none ages out of the arena.
		entry := mixSeed(seed, kindEntry, nr%mixEntries)
		qs = append(qs, resampleQuery(entry, mixSeed(seed, kindResample, r*mixResample+nr)))
		nr++
	}
	heavy := len(qs)
	for i := 0; i < mixWarm; i++ {
		of := rng.Intn(heavy)
		qs = append(qs, mixQuery{Class: "warm", Body: qs[of].Body, Scenario: qs[of].Scenario, Resample: qs[of].Resample, Of: of})
	}
	return qs
}

// record is a query's final response record.
type record struct {
	Type        string          `json:"type"`
	Error       string          `json:"error"`
	Reps        int             `json:"reps"`
	Values      json.RawMessage `json:"values"`
	ArenaHits   int             `json:"arena_hits"`
	ArenaMisses int             `json:"arena_misses"`
}

func (r record) values() ([]float64, error) {
	var vs []float64
	err := json.Unmarshal(r.Values, &vs)
	return vs, err
}

// spanRef carries a request's server span and id into the arena runner.
type spanRef struct{ span, rid int }

type spanKey struct{}

// mixServer is one serve.Server on a loopback listener, with the client
// that talks to it.
type mixServer struct {
	srv  *serve.Server
	hs   *http.Server
	done chan struct{}
	url  string
	hc   *http.Client

	tr      *Tracer     // nil: never traced
	tracing atomic.Bool // the current round is traced
	mu      sync.Mutex
	built   counts        // work counts of traced builds
	traced  []tracedBuild // traced builds, checked after the run
}

// tracedBuild is one cold build the traced composition ran.
type tracedBuild struct {
	cfg scenario.Config
	res *scenario.Result
}

func startServer(tr *Tracer) (*mixServer, error) {
	m := &mixServer{tr: tr, done: make(chan struct{})}
	arena := serve.NewArena(serve.ArenaOptions{BudgetBytes: mixBudget, Runner: m.build})
	m.srv = serve.NewServer(serve.Options{Arena: arena, Jobs: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m.hs = &http.Server{Handler: http.HandlerFunc(m.handle)}
	go func() {
		defer close(m.done)
		_ = m.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	m.url = "http://" + ln.Addr().String() + "/v1/query"
	m.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	return m, nil
}

// close stops the server and waits for it to exit.
func (m *mixServer) close() {
	m.hc.CloseIdleConnections()
	_ = m.hs.Close() // the listener error, if any, is Serve's to report
	<-m.done
}

// build is the arena's runner: scenario.RunBoundCtx, or during a traced
// round the traced composition under a serve.build span.
func (m *mixServer) build(ctx context.Context, cfg scenario.Config) (*scenario.Result, *scenario.Bound, error) {
	if !m.tracing.Load() {
		return scenario.RunBoundCtx(ctx, cfg)
	}
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	id := m.tr.Begin("serve.build", ref.span, ref.rid)
	res, b, c, err := tracedRun(ctx, cfg, m.tr, id, ref.rid)
	m.tr.End(id)
	if err == nil {
		m.mu.Lock()
		m.built.add(c)
		m.traced = append(m.traced, tracedBuild{cfg: cfg, res: res})
		m.mu.Unlock()
	}
	return res, b, err
}

// handle serves a request, under a server.handle span during a traced
// round.
func (m *mixServer) handle(w http.ResponseWriter, r *http.Request) {
	if !m.tracing.Load() {
		m.srv.Handler().ServeHTTP(w, r)
		return
	}
	rid, _ := strconv.Atoi(r.Header.Get("X-Kadperf-Rid"))
	parent, _ := strconv.Atoi(r.Header.Get("X-Kadperf-Span"))
	id := m.tr.Begin("server.handle", parent, rid)
	ctx := context.WithValue(r.Context(), spanKey{}, spanRef{span: id, rid: rid})
	m.srv.Handler().ServeHTTP(w, r.WithContext(ctx))
	m.tr.End(id)
}

// query sends one query and reads its final record. During a traced
// round it records a client.query span under parent.
func (m *mixServer) query(body []byte, parent, rid int) (record, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, m.url, bytes.NewReader(body))
	if err != nil {
		return record{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	id := 0
	if m.tracing.Load() {
		id = m.tr.Begin("client.query", parent, rid)
		req.Header.Set("X-Kadperf-Rid", strconv.Itoa(rid))
		req.Header.Set("X-Kadperf-Span", strconv.Itoa(id))
	}
	start := time.Now()
	resp, err := m.hc.Do(req)
	var b []byte
	if err == nil {
		b, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	d := time.Since(start)
	if id != 0 {
		m.tr.End(id)
	}
	if err != nil {
		return record{}, d, err
	}
	var rec record
	if err := json.Unmarshal(bytes.TrimSpace(b), &rec); err != nil {
		return record{}, d, fmt.Errorf("status %d: %q: %w", resp.StatusCode, b, err)
	}
	if resp.StatusCode != http.StatusOK || rec.Type != "result" {
		return rec, d, fmt.Errorf("status %d: %s", resp.StatusCode, rec.Error)
	}
	return rec, d, nil
}

// setup starts a server, warms the size-100 scenarios that resample
// queries analyze, and sends one query of each class so that every code
// path and the connection are warm before the measured rounds.
func (serveMix) setup(seed int64, tr *Tracer, n int) (*mixServer, error) {
	m, err := startServer(tr)
	if err != nil {
		return nil, err
	}
	for i := 0; i < mixEntries; i++ {
		if _, _, err := m.query(mustBody(entrySpec(mixSeed(seed, kindEntry, i))), 0, 0); err != nil {
			m.close()
			return nil, fmt.Errorf("warming entry %d: %w", i, err)
		}
	}
	warmUp := []mixQuery{
		coldQuery(mixSeed(seed, kindSetupCold, n)),
		resampleQuery(mixSeed(seed, kindEntry, 0), mixSeed(seed, kindSetupResample, n)),
	}
	for _, q := range append(warmUp, warmUp...) { // the repeats are warm queries
		if _, _, err := m.query(q.Body, 0, 0); err != nil {
			m.close()
			return nil, fmt.Errorf("warm-up %s query: %w", q.Class, err)
		}
	}
	return m, nil
}

// roundResult is the measurement of one round.
type roundResult struct {
	wall     time.Duration
	cold     []float64 // latencies, ms
	resample []float64
	warmQPS  float64
	recs     []record
	lat      []time.Duration
	rids     []int
	consumed int
	span     int // the round span of a traced round
}

// runRound sends one round and checks every response's arena counters
// and every warm repeat's values against the query it repeats.
func (m *mixServer) runRound(qs []mixQuery, round, ridBase int, out *outcome) roundResult {
	rr := roundResult{recs: make([]record, len(qs)), lat: make([]time.Duration, len(qs)), rids: make([]int, len(qs))}
	if m.tracing.Load() {
		rr.span = m.tr.Begin("round", 0, 0)
	}
	parent := rr.span
	start := time.Now()
	var warmStart time.Time
	for i, q := range qs {
		if q.Class == "warm" && warmStart.IsZero() {
			warmStart = time.Now()
		}
		rid := ridBase + i + 1
		rec, d, err := m.query(q.Body, parent, rid)
		rr.recs[i], rr.lat[i], rr.rids[i] = rec, d, rid
		rr.consumed += rec.Reps
		out.Attempted++
		if err == nil {
			err = checkRecord(q, rec, rr.recs)
		}
		if err != nil {
			out.Failed++
			out.failf("round %d query %d (%s): %v", round, i, q.Class, err)
		}
		switch q.Class {
		case "cold":
			rr.cold = append(rr.cold, d.Seconds()*1e3)
		case "resample":
			rr.resample = append(rr.resample, d.Seconds()*1e3)
		}
	}
	end := time.Now()
	if parent != 0 {
		m.tr.End(parent)
	}
	rr.wall = end.Sub(start)
	rr.warmQPS = float64(mixWarm) / end.Sub(warmStart).Seconds()
	return rr
}

// checkRecord checks a response: a cold query simulated every
// replication, a resample or warm query none, and a warm query returned
// the values of the query it repeats.
func checkRecord(q mixQuery, rec record, recs []record) error {
	if rec.Reps != mixReps {
		return fmt.Errorf("%d replications, want %d", rec.Reps, mixReps)
	}
	wantHits := mixReps
	if q.Class == "cold" {
		wantHits = 0
	}
	if rec.ArenaHits != wantHits || rec.ArenaMisses != mixReps-wantHits {
		return fmt.Errorf("arena hits/misses %d/%d, want %d/%d", rec.ArenaHits, rec.ArenaMisses, wantHits, mixReps-wantHits)
	}
	if q.Class == "warm" && !bytes.Equal(rec.Values, recs[q.Of].Values) {
		return fmt.Errorf("values %s differ from the repeated query's %s", rec.Values, recs[q.Of].Values)
	}
	return nil
}

// repConfig resolves replication rep of a query the way the server does.
func repConfig(body []byte, rep int) (scenario.Config, error) {
	var qs serve.QuerySpec
	if err := json.Unmarshal(body, &qs); err != nil {
		return scenario.Config{}, err
	}
	q, err := qs.Resolve()
	if err != nil {
		return scenario.Config{}, err
	}
	cfg := q.Config
	cfg.Seed = sweep.DeriveSeed(cfg.Seed, rep)
	return cfg, nil
}

// checkCold compares a cold query's values with scenario.Run's for the
// same configurations.
func checkCold(q mixQuery, rec record) error {
	vs, err := rec.values()
	if err != nil {
		return err
	}
	for rep, v := range vs {
		cfg, err := repConfig(q.Body, rep)
		if err != nil {
			return err
		}
		res, err := scenario.Run(cfg)
		if err != nil {
			return err
		}
		if want := res.ChurnWindowSummary().Mean; v != want {
			return fmt.Errorf("rep %d value %v, scenario.Run gives %v", rep, v, want)
		}
	}
	return nil
}

// replay analyzes a resample query's (fraction, seed) on the reference
// arena through Arena.Get and Entry.AnalyzeFinal, without HTTP, checks
// the values against the response, and returns the analysis time and
// flows. During a traced round each analysis is a serve.AnalyzeFinal
// span under parent.
func replay(ref *serve.Arena, q mixQuery, rec record, tr *Tracer, parent, rid int) (time.Duration, int, error) {
	vs, err := rec.values()
	if err != nil {
		return 0, 0, err
	}
	var busy time.Duration
	flows := 0
	for rep, v := range vs {
		cfg, err := repConfig(q.Body, rep)
		if err != nil {
			return 0, 0, err
		}
		e, warm, err := ref.Get(context.Background(), cfg)
		if err != nil {
			return 0, 0, err
		}
		if !warm {
			return 0, 0, fmt.Errorf("rep %d: reference arena lacks the warmed entry", rep)
		}
		id := 0
		if tr != nil {
			id = tr.Begin("serve.AnalyzeFinal", parent, rid)
		}
		start := time.Now()
		sr, err := e.AnalyzeFinal(resampleFraction, q.Resample)
		busy += time.Since(start)
		if id != 0 {
			tr.End(id)
		}
		if err != nil {
			return 0, 0, err
		}
		flows += sr.Min.Pairs + sr.Avg.Pairs
		want := sr.Avg.Avg
		if sr.Avg.Pairs == 0 {
			want = float64(e.FinalN() - 1)
		}
		if v != want {
			return 0, 0, fmt.Errorf("rep %d value %v, AnalyzeFinal gives %v", rep, v, want)
		}
	}
	return busy, flows, nil
}

// mixRun is the state of one serve_mix run.
type mixRun struct {
	o      options
	out    *outcome
	tr     *Tracer    // nil when untraced
	m, ref *mixServer // the measured server and the reference arena's
	rid    int        // request ids handed out so far

	runs, rss []float64 // untraced rounds
	// Class latencies (ms) and warm throughput of every round: in a
	// traced run, half of them carry the tracing overhead, and together
	// they give each percentile at least ten samples above it.
	cold, resample, warmQPS    []float64
	traced                     []map[string]float64
	coldSample, resampleSample []sentQuery
}

// sentQuery is a query and the record it was answered with.
type sentQuery struct {
	q   mixQuery
	rec record
}

func (s serveMix) run(o options) (*outcome, error) {
	mr := &mixRun{o: o, out: &outcome{Values: map[string]float64{}}}
	if o.trace {
		mr.tr = newTracer()
	}
	// The first set-up's server holds the reference arena that resample
	// answers are replayed on; the last set-up's server is measured.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		srv, err := s.setup(o.seed, mr.tr, i)
		if err != nil {
			if mr.ref != nil {
				mr.ref.close()
			}
			if mr.m != nil {
				mr.m.close()
			}
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		switch {
		case mr.ref == nil:
			mr.ref = srv
		case mr.m != nil:
			mr.m.close()
			mr.m = srv
		default:
			mr.m = srv
		}
	}
	defer mr.ref.close()
	defer mr.m.close()
	mr.out.Values["setup_s"] = median(setups)

	// A traced run alternates untraced and traced rounds.
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	var last time.Duration
	for r := 0; !unitsDone(o, deadline, last, len(mr.runs), len(mr.traced)); r++ {
		start := time.Now()
		if o.trace && r%2 == 1 {
			mr.tracedRound(r)
		} else {
			mr.untracedRound(r)
		}
		last = time.Since(start)
	}
	mr.check()
	mr.report()
	return mr.out, nil
}

// round sends round r, recording its first cold query for checkCold.
func (mr *mixRun) round(r int, traced bool) ([]mixQuery, roundResult, float64, float64) {
	qs := roundQueries(mr.o.seed, r)
	mr.m.tracing.Store(traced)
	runtime.GC()
	resetPeakRSS()
	var rr roundResult
	alloc, gcs, _ := memDelta(func() error {
		rr = mr.m.runRound(qs, r, mr.rid, mr.out)
		return nil
	})
	mr.m.tracing.Store(false)
	mr.rid += len(qs)
	i := firstOf(qs, "cold")
	mr.coldSample = append(mr.coldSample, sentQuery{qs[i], rr.recs[i]})
	return qs, rr, alloc, gcs
}

func firstOf(qs []mixQuery, class string) int {
	for i, q := range qs {
		if q.Class == class {
			return i
		}
	}
	return -1
}

func (mr *mixRun) untracedRound(r int) {
	qs, rr, alloc, gcs := mr.round(r, false)
	mr.runs = append(mr.runs, rr.wall.Seconds())
	mr.rss = append(mr.rss, peakRSSMB())
	mr.cold = append(mr.cold, rr.cold...)
	mr.resample = append(mr.resample, rr.resample...)
	mr.warmQPS = append(mr.warmQPS, rr.warmQPS)
	i := firstOf(qs, "resample")
	mr.resampleSample = append(mr.resampleSample, sentQuery{qs[i], rr.recs[i]})
	mr.out.Units = append(mr.out.Units, map[string]float64{
		"run_s": rr.wall.Seconds(), "peak_rss_mb": mr.rss[len(mr.rss)-1], "go.alloc_mb": alloc, "go.gc_cycles": gcs,
	})
	fmt.Printf("unit %d untraced round %.4fs warm %.0f/s\n", len(mr.runs), rr.wall.Seconds(), rr.warmQPS)
}

// tracedRound sends round r traced, replays its resample queries on the
// reference arena, and records the round's per-layer values. The
// replayed analysis time is charged to connectivity.analyze and taken
// out of the server's self time, where the in-request analysis ran.
func (mr *mixRun) tracedRound(r int) {
	m := mr.m
	before := m.srv.Arena().Stats()
	m.mu.Lock()
	m.built = counts{}
	m.mu.Unlock()
	qs, rr, alloc, gcs := mr.round(r, true)
	after := m.srv.Arena().Stats()
	m.mu.Lock()
	built := m.built
	m.mu.Unlock()

	root := mr.tr.Begin("replay", 0, 0)
	analyzed := map[int]time.Duration{}
	var replayed time.Duration
	flows := 0
	var shares []float64
	for i, q := range qs {
		if q.Class != "resample" {
			continue
		}
		mr.out.Attempted++
		d, f, err := replay(mr.ref.srv.Arena(), q, rr.recs[i], mr.tr, root, rr.rids[i])
		if err != nil {
			mr.out.Failed++
			mr.out.failf("round %d resample query %d replay: %v", r, i, err)
		}
		analyzed[rr.rids[i]] += d
		replayed += d
		flows += f
		shares = append(shares, ratio(float64(d), float64(rr.lat[i])))
	}
	mr.tr.End(root)

	tree := newSpanTree(mr.tr.Spans())
	unit := layerValues(tree, rr.span, built)
	builtBy := map[int]float64{}
	for _, sp := range tree.spans {
		if sp.Name == "serve.build" {
			builtBy[sp.RID] += float64(sp.busy())
		}
	}
	var overhead []float64
	for i := range qs {
		rid := rr.rids[i]
		overhead = append(overhead, (float64(rr.lat[i])-builtBy[rid]-float64(analyzed[rid]))/1e6)
	}
	unit["serve.overhead_ms"] = median(overhead)
	unit["connectivity.analyze_s"] += replayed.Seconds()
	unit["connectivity.flows"] += float64(flows)
	unit["self:serve"] -= replayed.Seconds()
	unit["self:connectivity.analyze"] += replayed.Seconds()
	derive(unit)
	unit["resample_analyze_share"] = median(shares)
	unit["serve.arena_hits"] = float64(after.Hits - before.Hits)
	unit["serve.arena_misses"] = float64(after.Misses - before.Misses)
	unit["serve.arena_evictions"] = float64(after.Evictions - before.Evictions)
	unit["serve.arena_used_mb"] = float64(after.UsedBytes) / (1 << 20)
	unit["sweep.reps_run"] = unit["serve.arena_hits"] + unit["serve.arena_misses"]
	unit["sweep.reps_consumed"] = float64(rr.consumed)
	unit["go.alloc_mb"], unit["go.gc_cycles"] = alloc, gcs
	unit["untraced_s"] = mr.runs[len(mr.runs)-1]
	unit["trace.overhead_s"] = unit["unit_s"] - unit["untraced_s"]
	mr.cold = append(mr.cold, rr.cold...)
	mr.resample = append(mr.resample, rr.resample...)
	mr.warmQPS = append(mr.warmQPS, rr.warmQPS)
	mr.traced = append(mr.traced, unit)
	mr.out.Units = append(mr.out.Units, unit)
	fmt.Printf("unit %d traced round %.4fs\n", len(mr.traced), unit["unit_s"])
}

// check runs the checks outside the measured rounds: the first cold
// query of every round against scenario.Run, the first resample query of
// every untraced round against the reference arena, and every traced
// build against scenario.Run.
func (mr *mixRun) check() {
	out := mr.out
	for _, c := range mr.coldSample {
		out.Attempted++
		if err := checkCold(c.q, c.rec); err != nil {
			out.Failed++
			out.failf("cold query check: %v", err)
		}
	}
	for _, c := range mr.resampleSample {
		out.Attempted++
		if _, _, err := replay(mr.ref.srv.Arena(), c.q, c.rec, nil, 0, 0); err != nil {
			out.Failed++
			out.failf("resample query check: %v", err)
		}
	}
	for _, b := range mr.m.traced {
		out.Attempted++
		if err := checkTraced(b.cfg, b.res); err != nil {
			out.Failed++
			out.failf("traced build %q: %v", b.cfg.Name, err)
		}
	}
}

// report fills the outcome's values and prints the class latencies and,
// traced, the attribution.
func (mr *mixRun) report() {
	v := mr.out.Values
	v["run_s"] = median(mr.runs)
	v["peak_rss_mb"] = median(mr.rss)
	fmt.Printf("classes: cold p50 %.2fms p90 %.2fms (n=%d), resample p50 %.2fms p90 %.2fms (n=%d), warm %.0f/s\n",
		percentile(mr.cold, 50), percentile(mr.cold, 90), len(mr.cold),
		percentile(mr.resample, 50), percentile(mr.resample, 90), len(mr.resample), median(mr.warmQPS))
	if mr.tr == nil {
		return
	}
	for k, x := range medianOf(mr.traced) {
		v[k] = x
	}
	v["serve.cold_p50_ms"] = percentile(mr.cold, 50)
	v["serve.cold_p90_ms"] = percentile(mr.cold, 90)
	v["serve.resample_p50_ms"] = percentile(mr.resample, 50)
	v["serve.resample_p90_ms"] = percentile(mr.resample, 90)
	v["serve.warm_qps"] = median(mr.warmQPS)
	mr.out.Attribution = attribution(mr.traced)
	printAttribution("serve_mix", mr.out.Attribution, mr.traced)
	fmt.Printf("  resample latency spent in replayed analysis: %.1f%% (median over traced resample queries)\n",
		100*v["resample_analyze_share"])
	mr.out.Spans = mr.tr.Spans()
}

// checkTraced compares a traced run's result with scenario.Run's for the
// same config, byte for byte through the sweep document.
func checkTraced(cfg scenario.Config, res *scenario.Result) error {
	want, err := scenario.Run(cfg)
	if err != nil {
		return err
	}
	b := batchWorkload{id: "check"}
	doc := func(r *scenario.Result) ([]byte, error) {
		rs := &sweep.RunSet{Config: cfg, Reps: []*scenario.Result{r}}
		if err := rs.Aggregate(); err != nil {
			return nil, err
		}
		return b.sweepDoc([]*sweep.RunSet{rs})
	}
	got, err := doc(res)
	if err != nil {
		return err
	}
	exp, err := doc(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, exp) {
		return fmt.Errorf("traced result differs from scenario.Run")
	}
	return nil
}
