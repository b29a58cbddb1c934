package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"kadre/internal/churn"
	"kadre/internal/connectivity"
	"kadre/internal/eventsim"
	"kadre/internal/kademlia"
	"kadre/internal/scenario"
	"kadre/internal/simnet"
	"kadre/internal/snapshot"
	"kadre/internal/traffic"
)

// counts are the deterministic work counters of one or more traced
// simulations. A pure speed-up leaves every one of them unchanged.
type counts struct {
	Events          uint64
	DeliverCalls    int64
	RPCsSent        uint64
	Timeouts        uint64
	LookupsStarted  uint64
	LookupsDone     uint64
	Refreshes       uint64
	Evictions       uint64
	Sent            uint64
	Delivered       uint64
	Lost            uint64
	NoRoute         uint64
	Lookups         int
	Stores          int
	ChurnAdded      int
	ChurnRemoved    int
	Captures        int
	Edges           int
	FullBinds       int
	IncrementalBind int
	MemberRebinds   int
	RebindFallbacks int
	Flows           int
	Redensifies     int
	SlotCompactions int
	Runs            int
}

func (c *counts) add(o counts) {
	c.Events += o.Events
	c.DeliverCalls += o.DeliverCalls
	c.RPCsSent += o.RPCsSent
	c.Timeouts += o.Timeouts
	c.LookupsStarted += o.LookupsStarted
	c.LookupsDone += o.LookupsDone
	c.Refreshes += o.Refreshes
	c.Evictions += o.Evictions
	c.Sent += o.Sent
	c.Delivered += o.Delivered
	c.Lost += o.Lost
	c.NoRoute += o.NoRoute
	c.Lookups += o.Lookups
	c.Stores += o.Stores
	c.ChurnAdded += o.ChurnAdded
	c.ChurnRemoved += o.ChurnRemoved
	c.Captures += o.Captures
	c.Edges += o.Edges
	c.FullBinds += o.FullBinds
	c.IncrementalBind += o.IncrementalBind
	c.MemberRebinds += o.MemberRebinds
	c.RebindFallbacks += o.RebindFallbacks
	c.Flows += o.Flows
	c.Redensifies += o.Redensifies
	c.SlotCompactions += o.SlotCompactions
	c.Runs += o.Runs
}

// deliverClock accumulates the time nodes spend in Deliver.
type deliverClock struct {
	calls int64
	busy  time.Duration
}

// timedNode stands in for a node on the simulated network so that every
// message delivery is timed at the kademlia boundary.
type timedNode struct {
	node  *kademlia.Node
	clock *deliverClock
}

func (h timedNode) Deliver(from simnet.Addr, payload any) {
	start := time.Now()
	h.node.Deliver(from, payload)
	h.clock.busy += time.Since(start)
	h.clock.calls++
}

// population is the node set of one traced simulation. It mirrors the
// scenario runner's own population: the same membership operations
// drawing the same kernel random numbers in the same order.
type population struct {
	sim      *eventsim.Simulator
	net      *simnet.Network
	cfg      kademlia.Config
	nodes    []*kademlia.Node
	nextAddr simnet.Addr
	clock    *deliverClock
}

// LiveNodes implements traffic.Population.
func (p *population) LiveNodes() []*kademlia.Node {
	out := make([]*kademlia.Node, 0, len(p.nodes))
	for _, n := range p.nodes {
		if n.Running() {
			out = append(out, n)
		}
	}
	return out
}

// RemoveRandomNode implements churn.Population.
func (p *population) RemoveRandomNode() bool {
	live := p.LiveNodes()
	if len(live) == 0 {
		return false
	}
	live[p.sim.Rand().Intn(len(live))].Leave()
	return true
}

// AddNode implements churn.Population.
func (p *population) AddNode() error {
	_, err := p.spawn()
	return err
}

// spawn creates, starts, times and (when a bootstrap exists) joins one
// node. Re-attaching the started node behind timedNode draws no random
// numbers and schedules nothing, so the run is unchanged.
func (p *population) spawn() (*kademlia.Node, error) {
	live := p.LiveNodes()
	addr := p.nextAddr
	p.nextAddr++
	node, err := kademlia.NewNode(p.cfg, addr, p.net)
	if err != nil {
		return nil, fmt.Errorf("spawn: %w", err)
	}
	if err := node.Start(); err != nil {
		return nil, fmt.Errorf("spawn: %w", err)
	}
	p.net.Detach(addr)
	if err := p.net.Attach(addr, timedNode{node: node, clock: p.clock}); err != nil {
		return nil, fmt.Errorf("spawn: %w", err)
	}
	p.nodes = append(p.nodes, node)
	if len(live) > 0 {
		bootstrap := live[p.sim.Rand().Intn(len(live))]
		if err := node.Join(bootstrap.Contact(), nil); err != nil {
			return nil, fmt.Errorf("join: %w", err)
		}
	}
	return node, nil
}

// tracedRun executes one simulation the way scenario.RunBoundCtx does,
// composed from the same public calls in the same scheduling order, with
// a span around each layer boundary under parent. The kernel runs one
// phase at a time (setup, stabilization, churn), which fires the same
// events in the same order as a single RunUntil to the end. Configs with
// an adversary or a generative workload are refused: no workload of this
// benchmark uses them.
//
// The Result and Bound must equal scenario.RunBoundCtx's for the same
// config; checkTraced verifies that for every traced run.
func tracedRun(ctx context.Context, cfg scenario.Config, tr *Tracer, parent, rid int) (*scenario.Result, *scenario.Bound, counts, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, nil, counts{}, err
	}
	if cfg.Attack.Enabled() || cfg.Gen.Enabled() {
		return nil, nil, counts{}, fmt.Errorf("traced run %q: attacks and generative workloads are not composed", cfg.Name)
	}
	start := time.Now()
	run := tr.Begin("scenario.run", parent, rid)
	defer tr.End(run)
	setup := tr.Begin("scenario.setup", run, rid)

	sim := eventsim.New(cfg.Seed)
	sim.SetCancel(ctx, 0)
	net := simnet.New(sim, simnet.Config{
		Latency: simnet.UniformLatency{Min: 10 * time.Millisecond, Max: 100 * time.Millisecond},
		Loss:    cfg.Loss.Model(),
	})
	kcfg := kademlia.Config{Bits: cfg.Bits, K: cfg.K, Alpha: cfg.Alpha, StalenessLimit: cfg.Staleness}.WithDefaults()
	pop := &population{sim: sim, net: net, cfg: kcfg, nextAddr: 1, clock: &deliverClock{}}

	joinTimes := make([]time.Duration, cfg.Size)
	for i := range joinTimes {
		joinTimes[i] = time.Duration(sim.Rand().Int63n(int64(cfg.Setup)))
	}
	sort.Slice(joinTimes, func(i, j int) bool { return joinTimes[i] < joinTimes[j] })
	var spawnErr error
	for _, at := range joinTimes {
		if _, err := sim.ScheduleAt(at, func() {
			if _, err := pop.spawn(); err != nil && spawnErr == nil {
				spawnErr = err
			}
		}); err != nil {
			return nil, nil, counts{}, err
		}
	}
	var traff *traffic.Generator
	if cfg.Traffic {
		var err error
		if traff, err = traffic.NewGenerator(sim, kcfg.Bits, cfg.Workload, pop); err != nil {
			return nil, nil, counts{}, err
		}
		if err := traff.Start(0, cfg.Total()); err != nil {
			return nil, nil, counts{}, err
		}
	}
	churnGen := churn.NewGenerator(sim, cfg.Churn, pop)
	if !cfg.Churn.IsZero() {
		if err := churnGen.Start(cfg.ChurnStart(), cfg.Total()); err != nil {
			return nil, nil, counts{}, err
		}
	}
	// The runner also builds a disabled adversary here; it schedules
	// nothing and draws no random numbers, so it is left out.

	res := &scenario.Result{Config: cfg}
	engine, err := connectivity.NewEngine(connectivity.EngineOptions{Workers: cfg.Workers})
	if err != nil {
		return nil, nil, counts{}, err
	}
	engine.SetGovernance(cfg.Governance)
	binder := connectivity.NewIncrementalBinder(engine)
	var slots snapshot.SlotIndex
	slots.Reserve(cfg.Size)
	var c counts
	var lastSnap *snapshot.SlotSnapshot
	var lastAvgSeed int64
	phase := 0 // the open phase span, parent of snapshot spans
	snap := func() {
		if ctx.Err() != nil {
			sim.Stop()
			return
		}
		sp := tr.Begin("snapshot", phase, rid)
		defer tr.End(sp)
		id := tr.Begin("snapshot.CaptureSlots", sp, rid)
		s := snapshot.CaptureSlots(sim.Now(), pop.nodes, &slots)
		tr.End(id)
		c.Captures++
		c.Edges += s.Graph.M()
		point := scenario.SnapshotStat{
			Time: sim.Now(), N: s.N(), Edges: s.Graph.M(), SCC: s.LargestSCCFraction(),
		}
		if s.N() > 1 {
			point.Symmetry = s.Graph.SymmetryRatio()
			id = tr.Begin("connectivity.BindNextSlots", sp, rid)
			incremental := binder.BindNextSlots(s.Graph, s.Order)
			tr.End(id)
			if incremental {
				res.IncrementalBinds++
			} else {
				res.FullBinds++
			}
			avgSeed := cfg.Seed + int64(len(res.Points))
			id = tr.Begin("connectivity.AnalyzeSnapshot", sp, rid)
			sr := engine.AnalyzeSnapshot(connectivity.SnapshotQuery{
				SampleFraction: cfg.SampleFraction,
				AvgSeed:        avgSeed,
			})
			tr.End(id)
			c.Flows += sr.Min.Pairs + sr.Avg.Pairs
			lastSnap, lastAvgSeed = s, avgSeed
			point.Min = sr.Min.Min
			point.Avg = sr.Avg.Avg
			if sr.Avg.Pairs == 0 {
				point.Avg = float64(s.N() - 1)
			}
		}
		res.Points = append(res.Points, point)
		id = tr.Begin("connectivity.Maintain", sp, rid)
		engine.Maintain()
		tr.End(id)
		if cfg.Governance.SlotCompactionDue(slots.Len(), slots.Live()) {
			id = tr.Begin("snapshot.Compact", sp, rid)
			slots.Compact()
			tr.End(id)
			res.SlotCompactions++
		}
	}
	for at := cfg.SnapshotInterval; at < cfg.Total(); at += cfg.SnapshotInterval {
		if _, err := sim.ScheduleAt(at, snap); err != nil {
			return nil, nil, counts{}, err
		}
	}
	if _, err := sim.ScheduleAt(cfg.Total(), snap); err != nil {
		return nil, nil, counts{}, err
	}
	tr.End(setup)

	for _, ph := range []struct {
		name  string
		until time.Duration
	}{
		{"phase.setup", cfg.Setup},
		{"phase.stabilize", cfg.ChurnStart()},
		{"phase.churn", cfg.Total()},
	} {
		phase = tr.Begin(ph.name, run, rid)
		*pop.clock = deliverClock{}
		sim.RunUntil(ph.until)
		tr.End(phase)
		tr.Aggregate("kademlia.Deliver", phase, rid, pop.clock.calls, pop.clock.busy)
		c.DeliverCalls += pop.clock.calls
		if ctx.Err() != nil {
			break
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, counts{}, fmt.Errorf("traced run %q canceled: %w", cfg.Name, err)
	}
	if spawnErr != nil {
		return nil, nil, counts{}, spawnErr
	}
	if errs := churnGen.Errs(); len(errs) > 0 {
		return nil, nil, counts{}, fmt.Errorf("churn additions failed: %w", errs[0])
	}

	fin := tr.Begin("scenario.finish", run, rid)
	res.MembershipRebinds = engine.MembershipRebinds()
	res.Redensifies = engine.Redensifies()
	res.DeadArcFrac = engine.MemoryStats().DeadArcFrac()
	res.SlotUtilization = slots.Utilization()
	res.ChurnAdded = churnGen.Added()
	res.ChurnRemoved = churnGen.Removed()
	if traff != nil {
		res.TrafficOps = traff.Lookups() + traff.Stores()
		c.Lookups, c.Stores = traff.Lookups(), traff.Stores()
	}
	res.Network = net.Stats()
	res.Elapsed = time.Since(start)

	c.Runs = 1
	c.Events = sim.Processed()
	for _, n := range pop.nodes {
		st := n.Stats()
		c.RPCsSent += st.RPCsSent
		c.Timeouts += st.Timeouts
		c.LookupsStarted += st.LookupsStarted
		c.LookupsDone += st.LookupsCompleted
		c.Refreshes += st.Refreshes
		c.Evictions += st.Evictions
	}
	c.Sent, c.Delivered, c.Lost, c.NoRoute = res.Network.Sent, res.Network.Delivered, res.Network.Lost, res.Network.NoRoute
	c.ChurnAdded, c.ChurnRemoved = res.ChurnAdded, res.ChurnRemoved
	c.FullBinds, c.IncrementalBind, c.MemberRebinds = res.FullBinds, res.IncrementalBinds, res.MembershipRebinds
	c.RebindFallbacks = engine.RebindFallbacks()
	c.Redensifies, c.SlotCompactions = res.Redensifies, res.SlotCompactions
	tr.End(fin)
	return res, &scenario.Bound{
		Engine: engine, Slots: &slots,
		Final: lastSnap, FinalAvgSeed: lastAvgSeed,
	}, c, nil
}
