package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/sim"
	"repro/internal/simds"
	"repro/internal/simtxn"
	"repro/internal/speculate"
)

// sim-figures: a fixed list of modeled points, each built with sim.New
// plus simds/simtxn constructors and run with Machine.Run at 1, 4 and 8
// simulated threads. It touches only sim, simds, simspec and simtxn. The
// simulated outputs are exact, so every point's op count and machine
// counters are checked against golden values: an engine change that alters
// a figure fails instead of looking fast.
const (
	simSetups     = 3
	simWarmRounds = 3 // passes over the point kinds in one set-up's warm-up
	simVariants   = 4 // machine seeds the --seed argument selects among
	simOpCost     = 60
)

// simPolicy pins the simulator structures' default speculation policy
// (simspec.DefaultPolicy without its environment override), so the golden
// counts cannot depend on the environment.
var simPolicy = speculate.Policy{Backoff: true, Adapt: true}

// simKind is one figure's workload shape.
type simKind struct {
	name   string
	layer  int    // per-layer host-time bucket
	window uint64 // simulated cycles per point
	model  string // sim.Config.Model
	build  func(m *sim.Machine, setup *sim.Thread) func(t *sim.Thread)
}

// Per-layer host-time buckets.
const (
	slFig2b = iota
	slFig3
	slFig4
	slA8
	slA12
	simLayers
)

var simLayerMetric = [simLayers]string{"sim.fig2b_host_s", "sim.fig3_host_s", "sim.fig4_host_s", "simtxn.a8_host_s", "sim.a12_host_s"}

var simKinds = []simKind{
	{"fig3-skip", slFig3, 400_000, sim.ModelRTM, buildSetbench(512, 34, func(m *sim.Machine, s *sim.Thread) setOps {
		x := simds.NewSimSkip(s, true, m.Config().Threads).WithPolicy(simPolicy)
		return setOps{x.Insert, x.Remove, x.Contains, nil}
	})},
	{"fig3-bst", slFig3, 400_000, sim.ModelRTM, buildSetbench(512, 34, func(m *sim.Machine, s *sim.Thread) setOps {
		x := simds.NewSimBST(s, simds.BSTPTO12, false, m.Config().Threads).WithPolicy(simPolicy)
		return setOps{x.Insert, x.Remove, x.Contains, nil}
	})},
	{"fig4-hash", slFig4, 400_000, sim.ModelRTM, buildSetbench(64*1024, 80, func(m *sim.Machine, s *sim.Thread) setOps {
		x := simds.NewSimHash(s, simds.HashPTO, 64, m.Config().Threads).WithPolicy(simPolicy)
		return setOps{x.Insert, x.Remove, x.Contains, x.Stabilize}
	})},
	{"fig2b-mound", slFig2b, 400_000, sim.ModelRTM, buildMound},
	{"a8-move", slA8, 300_000, sim.ModelRTM, buildComposedMove},
	{"a12-bounded", slA12, 300_000, sim.ModelBoundedSet, buildComposedMove},
}

var simThreads = []int{1, 4, 8}

type setOps struct {
	insert, remove, contains func(t *sim.Thread, k uint64) bool
	stabilize                func(t *sim.Thread)
}

// buildSetbench is the paper's setbench: the set prefilled to half its
// key range in shuffled order, then one draw per operation choosing key
// and kind (lookupPct lookups, the rest split between insert and remove).
func buildSetbench(keyRange uint64, lookupPct int, mk func(m *sim.Machine, s *sim.Thread) setOps) func(*sim.Machine, *sim.Thread) func(*sim.Thread) {
	return func(m *sim.Machine, setup *sim.Thread) func(*sim.Thread) {
		s := mk(m, setup)
		half := keyRange / 2
		for i := uint64(0); i < half; i++ {
			s.insert(setup, ((i*0x9E3779B1+7)&(half-1))*2+1)
		}
		if s.stabilize != nil {
			s.stabilize(setup)
		}
		return func(t *sim.Thread) {
			t.Work(simOpCost)
			x := t.Rand()
			k := x%keyRange + 1
			switch r := int(x >> 40 % 100); {
			case r < lookupPct:
				s.contains(t, k)
			case x>>52&1 == 0:
				s.insert(t, k)
			default:
				s.remove(t, k)
			}
		}
	}
}

// buildMound is pqbench on the PTO Mound: 4096 prefilled priorities, then
// an even mix of insert and remove-min.
func buildMound(m *sim.Machine, setup *sim.Thread) func(*sim.Thread) {
	const prefill, prioRange = 4096, 1 << 18
	q := simds.NewSimMound(setup, true, false, 15).WithPolicy(simPolicy)
	for i := uint64(0); i < prefill; i++ {
		q.Insert(setup, mix64(i)%prioRange)
	}
	return func(t *sim.Thread) {
		t.Work(simOpCost)
		x := t.Rand()
		if x&1 == 0 {
			q.Insert(t, x>>20%prioRange)
		} else {
			q.RemoveMin(t)
		}
	}
}

// buildComposedMove is A8's composed cross-structure Move between a
// simulated BST and hash table through simtxn; on a bounded-set machine it
// is A12's pair-move shape.
func buildComposedMove(m *sim.Machine, setup *sim.Thread) func(*sim.Thread) {
	const keyRange = 256
	mgr := simtxn.New(0).WithPolicy(simPolicy)
	b := simds.NewSimBST(setup, simds.BSTPTO12, false, m.Config().Threads).WithPolicy(simPolicy)
	h := simds.NewSimHash(setup, simds.HashPTO, 64, m.Config().Threads).WithPolicy(simPolicy)
	h.Stabilize(setup)
	half := uint64(keyRange / 2)
	for i := uint64(0); i < half; i++ {
		b.Insert(setup, ((i*0x9E3779B1+7)&(half-1))*2+1)
	}
	return func(t *sim.Thread) {
		t.Work(simOpCost)
		x := t.Rand()
		k := x%keyRange + 1
		if x>>40&1 == 0 {
			simtxn.Move(mgr, t, b, h, k)
		} else {
			simtxn.Move(mgr, t, h, b, k)
		}
	}
}

func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// simCounts is a point's exact output: operations completed and the
// machine's event counters.
type simCounts struct {
	Ops         uint64 `json:"ops"`
	Loads       uint64 `json:"loads"`
	Stores      uint64 `json:"stores"`
	CASes       uint64 `json:"cases"`
	Fences      uint64 `json:"fences"`
	Allocs      uint64 `json:"allocs"`
	Frees       uint64 `json:"frees"`
	TxCommits   uint64 `json:"tx_commits"`
	TxConflicts uint64 `json:"tx_conflicts"`
	TxCapacity  uint64 `json:"tx_capacity"`
	TxExplicit  uint64 `json:"tx_explicit"`
}

// events is the point's machine event count: memory events, allocator
// events and transaction outcomes.
func (c simCounts) events() uint64 {
	return c.Loads + c.Stores + c.CASes + c.Fences + c.Allocs + c.Frees +
		c.TxCommits + c.TxConflicts + c.TxCapacity + c.TxExplicit
}

func (c *simCounts) add(o simCounts) {
	c.Ops += o.Ops
	c.Loads += o.Loads
	c.Stores += o.Stores
	c.CASes += o.CASes
	c.Fences += o.Fences
	c.Allocs += o.Allocs
	c.Frees += o.Frees
	c.TxCommits += o.TxCommits
	c.TxConflicts += o.TxConflicts
	c.TxCapacity += o.TxCapacity
	c.TxExplicit += o.TxExplicit
}

func pointKey(k simKind, threads int) string { return fmt.Sprintf("%s/%d", k.name, threads) }

// simSeed is the machine seed of a variant.
func simSeed(variant int) uint64 { return uint64(variant)*0x9E3779B9 + 1 }

// runPoint builds and runs one point: the structure prefilled on a fresh
// machine, then every thread looping the operation until its clock passes
// window cycles. It returns the exact counts and the host time of the
// build and run phases.
func runPoint(k simKind, threads int, window uint64, variant int) (simCounts, time.Duration, time.Duration) {
	t0 := time.Now()
	cfg := sim.DefaultConfig(threads)
	cfg.Model = k.model
	cfg.Seed = simSeed(variant)
	m := sim.New(cfg)
	op := k.build(m, m.Thread(0))
	t1 := time.Now()
	var ops [16]uint64
	m.Run(func(t *sim.Thread) {
		for {
			op(t)
			ops[t.ID()]++
			if t.Now() >= window {
				return
			}
		}
	})
	t2 := time.Now()
	st := m.Stats()
	c := simCounts{
		Loads: st.Loads, Stores: st.Stores, CASes: st.CASes, Fences: st.Fences,
		Allocs: st.Allocs, Frees: st.Frees,
		TxCommits: st.TxCommits, TxConflicts: st.TxConflicts, TxCapacity: st.TxCapacity, TxExplicit: st.TxExplicit,
	}
	for _, n := range ops {
		c.Ops += n
	}
	return c, t1.Sub(t0), t2.Sub(t1)
}

//go:embed sim_golden.json
var simGoldenJSON []byte

// simGolden maps variant → point → exact counts.
type simGolden map[string]map[string]simCounts

func loadGolden() (simGolden, error) {
	var g simGolden
	if err := json.Unmarshal(simGoldenJSON, &g); err != nil {
		return nil, fmt.Errorf("sim golden counts: %w", err)
	}
	return g, nil
}

// writeGolden runs every point of every variant and writes the counts.
func writeGolden(path string) error {
	g := simGolden{}
	for v := 0; v < simVariants; v++ {
		pts := map[string]simCounts{}
		for _, k := range simKinds {
			for _, th := range simThreads {
				c, _, _ := runPoint(k, th, k.window, v)
				pts[pointKey(k, th)] = c
			}
		}
		g[fmt.Sprint(v)] = pts
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Traced-run span names: one root per point kind, children for the two
// phases.
const (
	ssBuild = iota
	ssRun
	ssPoint0
)

func simSpanNames() []string {
	names := []string{"build+prefill", "run"}
	for _, k := range simKinds {
		names = append(names, "point."+k.name)
	}
	return names
}

// simPass is one pass over every point.
type simPass struct {
	counts   simCounts
	mismatch int
	points   int
	runTime  time.Duration
	layer    [simLayers]time.Duration
}

// pass runs every point once, checking each against its golden counts,
// recording per-point host latency into lat and spans into tr (when set).
func pass(variant int, golden map[string]simCounts, lat *hist, tr *tracer, opID *uint32, mismatches *[]string) simPass {
	var p simPass
	for ki, k := range simKinds {
		for _, th := range simThreads {
			var root token
			if tr != nil {
				*opID++
				root = tr.begin(ssPoint0+ki, *opID, -1)
			}
			t0 := time.Now()
			c, build, run := runPoint(k, th, k.window, variant)
			d := time.Since(t0)
			if tr != nil {
				// The phases are timed inside runPoint; lay them end to end
				// from the point's start.
				mid := root.start + int64(build)
				tr.add(ssBuild, *opID, root.id, root.start, mid)
				tr.add(ssRun, *opID, root.id, mid, mid+int64(run))
				tr.end(root)
			}
			lat.record(int64(d))
			p.points++
			p.counts.add(c)
			p.runTime += run
			p.layer[k.layer] += d
			if want, ok := golden[pointKey(k, th)]; !ok || want != c {
				p.mismatch++
				*mismatches = append(*mismatches, fmt.Sprintf("%s: got %+v want %+v", pointKey(k, th), c, want))
			}
		}
	}
	return p
}

// simWindow runs whole passes until dur has passed, so every window holds
// the same mix of points.
type simWindow struct {
	window
	points, mismatch int
	passes           int
	onePass          simCounts
	runTime          time.Duration
	layer            [simLayers]time.Duration
	mismatches       []string
}

func simMeasure(dur time.Duration, variant int, golden map[string]simCounts, tr *tracer) simWindow {
	var w simWindow
	var opID uint32
	mt := startMeter(dur)
	for w.passes == 0 || mt.since() < int64(dur) {
		// Each pass is one slice of the window.
		var lat hist
		t0 := time.Now()
		p := pass(variant, golden, &lat, tr, &opID, &w.mismatches)
		w.tput = append(w.tput, float64(p.counts.Ops)/time.Since(t0).Seconds())
		w.p50 = append(w.p50, lat.quantileUs(0.50))
		w.p99 = append(w.p99, lat.quantileUs(0.99))
		w.passes++
		w.onePass = p.counts
		w.points += p.points
		w.mismatch += p.mismatch
		w.ops += int64(p.counts.Ops)
		w.runTime += p.runTime
		for i := range w.layer {
			w.layer[i] += p.layer[i]
		}
	}
	mt.end(&w.window)
	return w
}

// simWarm is the set-up's fixed warm-up: every kind simWarmRounds times
// at four threads.
func simWarm(variant int) {
	for r := 0; r < simWarmRounds; r++ {
		for _, k := range simKinds {
			runPoint(k, 4, k.window, variant)
		}
	}
}

func runSimFigures(cfg runCfg) (result, error) {
	g, err := loadGolden()
	if err != nil {
		return result{}, err
	}
	variant := int(((cfg.seed % simVariants) + simVariants) % simVariants)
	golden := g[fmt.Sprint(variant)]
	if !cfg.trace {
		var setups []float64
		for i := 0; i < simSetups; i++ {
			settle()
			t0 := time.Now()
			simWarm(variant)
			setups = append(setups, time.Since(t0).Seconds())
		}
		w := simMeasure(cfg.window(), variant, golden, nil)
		for _, s := range w.mismatches {
			fmt.Println("sim-figures mismatch:", s)
		}
		m := endToEnd(w.window, setups)
		m["success_frac"] = float64(w.points-w.mismatch) / float64(w.points)
		return finish(cfg, w.mismatch == 0, int64(w.points), int64(w.mismatch), m)
	}

	half := cfg.window() / 2
	simWarm(variant)
	ref := simMeasure(half, variant, golden, nil)
	settle()
	names := simSpanNames()
	tr := newTracer(time.Now(), names, 1<<12)
	w := simMeasure(half, variant, golden, tr)
	if err := writeSpans(cfg.spans, cfg.workload, cfg.seed, names, tr.spans, tr.dropped); err != nil {
		return result{}, err
	}
	events := float64(w.onePass.events()) * float64(w.passes)
	m := metrics{
		"sim.events_per_host_s": events / w.runTime.Seconds(),
		"sim.host_ns_per_event": float64(w.runTime.Nanoseconds()) / events,
		"sim.allocs_per_event":  w.rt.allocObjs / events,
		"sim.bytes_per_event":   w.rt.allocBytes / events,
		"sim.ops":               float64(w.onePass.Ops),
		"sim.events":            float64(w.onePass.events()),
		"sim.tx_commits":        float64(w.onePass.TxCommits),
		"sim.tx_conflicts":      float64(w.onePass.TxConflicts),
		"sim.tx_capacity":       float64(w.onePass.TxCapacity),
		"trace.overhead_frac":   1 - w.throughput()/ref.throughput(),
	}
	for i, name := range simLayerMetric {
		m[name] = w.layer[i].Seconds() / float64(w.passes)
	}
	runtimeLayer(m, w.window)
	if err := ledger(m); err != nil {
		return result{}, err
	}
	bad := int64(w.mismatch + ref.mismatch)
	return finish(cfg, bad == 0, int64(w.points), int64(w.mismatch), m)
}
