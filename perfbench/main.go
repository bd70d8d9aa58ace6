// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One run executes one workload for a fixed wall-clock window
// and prints, as its last line, one JSON object:
//
//	{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// run records spans around its calls into each layer and reports the
// per-layer set instead. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runCfg is one invocation's arguments.
type runCfg struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spans    string // span output path (traced runs)
}

func (c runCfg) window() time.Duration { return time.Duration(c.seconds) * time.Second }

// endToEndUnits lists every end-to-end metric with its unit.
var endToEndUnits = map[string]string{
	"throughput_ops_s":   "1/s",
	"latency_p50_us":     "us",
	"latency_p99_us":     "us",
	"success_frac":       "ratio",
	"alloc_bytes_per_op": "B",
	"allocs_per_op":      "count",
	"heap_goal_mb":       "MB",
	"setup_s":            "s",
}

// perLayerUnits lists every per-layer metric with its unit. A traced run
// reports all of them; a metric of a layer the workload does not run
// reads 0 (README.md maps each metric to its workload).
var perLayerUnits = map[string]string{
	"htm.commits_per_op":           "count",
	"htm.conflict_aborts_per_op":   "count",
	"htm.alias_aborts_per_op":      "count",
	"htm.capacity_aborts_per_op":   "count",
	"htm.explicit_aborts_per_op":   "count",
	"htm.commit_ratio":             "ratio",
	"htm.ro_ns":                    "ns",
	"htm.ro_allocs":                "count",
	"htm.rmw_ns":                   "ns",
	"htm.rmw_allocs":               "count",
	"htm.abort_ns":                 "ns",
	"htm.abort_allocs":             "count",
	"speculate.attempts_per_op":    "count",
	"speculate.fallbacks_per_op":   "count",
	"speculate.fast_commit_frac":   "ratio",
	"speculate.run_ns":             "ns",
	"speculate.run_allocs":         "count",
	"hashtable.contains_us_p50":    "us",
	"hashtable.update_us_p50":      "us",
	"hashtable.resizes":            "count",
	"msqueue.dequeue_us_p50":       "us",
	"txn.move_us_p50":              "us",
	"txn.move_us_p99":              "us",
	"txn.moveall_us_p50":           "us",
	"txn.fast_commit_frac":         "ratio",
	"txn.mcas_publications_per_op": "count",
	"txn.restarts_per_op":          "count",
	"txn.move_ns":                  "ns",
	"txn.move_allocs":              "count",
	"semtx.run_us_p50":             "us",
	"semtx.run_us_p99":             "us",
	"semtx.commit_self_frac":       "ratio",
	"semtx.retries_per_txn":        "count",
	"semtx.run3_ns":                "ns",
	"semtx.run3_allocs":            "count",
	"server.get_us_p50":            "us",
	"server.get_us_p99":            "us",
	"server.write_us_p50":          "us",
	"server.write_us_p99":          "us",
	"server.move_us_p50":           "us",
	"server.move_us_p99":           "us",
	"server.txn_us_p50":            "us",
	"server.txn_us_p99":            "us",
	"server.txn_409_frac":          "ratio",
	"server.sheds":                 "count",
	"server.setup_sheds":           "count",
	"server.publications_per_op":   "count",
	"server.min_commit_ratio":      "ratio",
	"server.handler_ns":            "ns",
	"server.handler_allocs":        "count",
	"server.wire_bytes_per_op":     "B",
	"tune.actions":                 "count",
	"tune.stripes":                 "count",
	"gc.cycles_per_kop":            "count",
	"gc.cpu_frac":                  "ratio",
	"gc.pause_p99_us":              "us",
	"sched.wait_p99_us":            "us",
	"sim.events_per_host_s":        "1/s",
	"sim.host_ns_per_event":        "ns",
	"sim.allocs_per_event":         "count",
	"sim.bytes_per_event":          "B",
	"sim.fig2b_host_s":             "s",
	"sim.fig3_host_s":              "s",
	"sim.fig4_host_s":              "s",
	"simtxn.a8_host_s":             "s",
	"sim.a12_host_s":               "s",
	"sim.ops":                      "count",
	"sim.events":                   "count",
	"sim.tx_commits":               "count",
	"sim.tx_conflicts":             "count",
	"sim.tx_capacity":              "count",
	"trace.overhead_frac":          "ratio",
}

// metrics is a run's named values; units come from the tables above.
type metrics map[string]float64

// subWindow slices a measured window. Throughput and latency percentiles
// are taken per slice and reported as the median over the window's full
// slices, so a stall of the shared host that covers a few slices moves
// the result less than it moves a whole-window mean.
const subWindow = 500 * time.Millisecond

// slice is one caller's record of one sub-window.
type slice struct {
	n   int64
	lat hist
}

// timed is a caller's per-slice record of a window, allocated before the
// window starts.
type timed struct {
	slices []slice
}

func newTimed(dur time.Duration) *timed {
	return &timed{slices: make([]slice, int(dur/subWindow)+1)}
}

// record books one operation that ended at offset end (from the window's
// start) after lat nanoseconds.
func (t *timed) record(end, lat int64) {
	if i := end / int64(subWindow); i < int64(len(t.slices)) {
		t.slices[i].n++
		t.slices[i].lat.record(lat)
	}
}

// window is what one measured window of a workload produced.
type window struct {
	ops     int64         // operations attempted
	failed  int64         // operations that failed or were refused
	elapsed time.Duration // wall time of the window
	rt      rtDelta       // runtime activity during the window
	// Per full slice: operations per second and latency percentiles (µs).
	tput, p50, p99 []float64
}

// fold merges the callers' per-slice records into w; only slices the
// window covered completely count.
func (w *window) fold(ts []*timed) {
	full := int(w.elapsed / subWindow)
	for i := 0; i < full && i < len(ts[0].slices); i++ {
		var n int64
		var h hist
		for _, t := range ts {
			n += t.slices[i].n
			h.merge(&t.slices[i].lat)
		}
		w.tput = append(w.tput, float64(n)/subWindow.Seconds())
		w.p50 = append(w.p50, h.quantileUs(0.50))
		w.p99 = append(w.p99, h.quantileUs(0.99))
	}
}

// meter brackets a measured window: the wall clock, the runtime counters
// at both ends, and the GC heap goal sampled through the window. The heap
// goal moves with each GC cycle's live heap, so its median over the window
// repeats where a single reading at the end does not.
type meter struct {
	start time.Time
	rt0   rtSample
	stop  chan struct{}
	done  chan struct{}
	goals []float64
}

const heapSampleEvery = 100 * time.Millisecond

func startMeter(dur time.Duration) *meter {
	// Every window starts right after a full collection, so no window
	// inherits a GC cycle the set-up left half done.
	settle()
	m := &meter{stop: make(chan struct{}), done: make(chan struct{}),
		goals: make([]float64, 0, int(dur/heapSampleEvery)+2)}
	m.rt0 = readRT()
	go func() {
		defer close(m.done)
		s := []rtmetrics.Sample{{Name: "/gc/heap/goal:bytes"}}
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				rtmetrics.Read(s)
				if len(m.goals) < cap(m.goals) && s[0].Value.Kind() == rtmetrics.KindUint64 {
					m.goals = append(m.goals, float64(s[0].Value.Uint64())/(1<<20))
				}
			}
		}
	}()
	m.start = time.Now()
	return m
}

// since is the offset of now from the window's start.
func (m *meter) since() int64 { return int64(time.Since(m.start)) }

// end closes the window, filling w's elapsed time and runtime activity.
func (m *meter) end(w *window) {
	w.elapsed = time.Since(m.start)
	close(m.stop)
	<-m.done
	w.rt = diffRT(m.rt0, readRT())
	if len(m.goals) > 0 {
		w.rt.heapGoalMB = median(m.goals)
	}
}

// closedLoop runs every caller's closed loop until dur has passed: step
// performs one operation and reports whether the caller may go on. It
// returns the window with its slices folded; the callers add their own
// failure counts.
func closedLoop[C any](cs []C, dur time.Duration, step func(C) bool) window {
	ts := make([]*timed, len(cs))
	ns := make([]int64, len(cs))
	for i := range cs {
		ts[i] = newTimed(dur)
	}
	mt := startMeter(dur)
	deadline := int64(dur)
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c C) {
			defer wg.Done()
			var n int64
			t0 := mt.since()
			for t0 < deadline && step(c) {
				t1 := mt.since()
				ts[i].record(t1, t1-t0)
				n++
				t0 = t1
			}
			ns[i] = n
		}(i, c)
	}
	wg.Wait()
	var win window
	mt.end(&win)
	for _, n := range ns {
		win.ops += n
	}
	win.fold(ts)
	return win
}

// throughput is the median slice's operations per second.
func (w window) throughput() float64 { return median(w.tput) }

// endToEnd derives the end-to-end metrics from the untraced window and
// the set-up times.
func endToEnd(w window, setups []float64) metrics {
	ops := float64(max(w.ops, 1))
	return metrics{
		"throughput_ops_s":   w.throughput(),
		"latency_p50_us":     median(w.p50),
		"latency_p99_us":     median(w.p99),
		"success_frac":       float64(w.ops-w.failed) / ops,
		"alloc_bytes_per_op": w.rt.allocBytes / ops,
		"allocs_per_op":      w.rt.allocObjs / ops,
		"heap_goal_mb":       w.rt.heapGoalMB,
		"setup_s":            median(setups),
	}
}

// runtimeLayer fills the Go runtime's per-layer metrics from a traced
// window.
func runtimeLayer(m metrics, w window) {
	m["gc.cycles_per_kop"] = w.rt.gcCycles / float64(max(w.ops, 1)) * 1e3
	m["gc.cpu_frac"] = w.rt.gcCPUFrac
	m["gc.pause_p99_us"] = w.rt.pauseP99Us
	m["sched.wait_p99_us"] = w.rt.schedWaitP99Us
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// workloadFunc runs one workload and returns its result.
type workloadFunc func(cfg runCfg) (result, error)

var workloads = map[string]workloadFunc{
	"lib-compose": runLibCompose,
	"serve-mix":   runServeMix,
	"sim-figures": runSimFigures,
}

// finish converts a workload's metrics to the printed result, checking
// that the metric set matches the mode's table exactly.
func finish(cfg runCfg, correct bool, attempted, failed int64, m metrics) (result, error) {
	units := endToEndUnits
	if cfg.trace {
		units = perLayerUnits
	}
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for name, unit := range units {
		v, ok := m[name]
		if !ok {
			v = 0 // the workload does not run this metric's layer
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", name, v)
		}
		r.Metrics[name] = metric{Value: v, Unit: unit}
	}
	for name := range m {
		if _, ok := units[name]; !ok {
			return r, fmt.Errorf("metric %s is not declared for this mode", name)
		}
	}
	if r.Attempted < 1 {
		return r, fmt.Errorf("no operation was attempted")
	}
	return r, nil
}

func main() {
	var cfg runCfg
	var traceFlag int
	var golden string
	flag.StringVar(&cfg.workload, "workload", "", "workload: lib-compose, serve-mix or sim-figures")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured window, seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.spans, "spans", "", "span output file of a traced run (default .bench_build/spans/<workload>-<seed>.json)")
	flag.StringVar(&golden, "write-golden", "", "regenerate the sim-figures golden counts into this file and exit")
	flag.Parse()
	if golden != "" {
		if err := writeGolden(golden); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload {lib-compose|serve-mix|sim-figures}, --seconds ≥ 1, --trace 0|1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	if cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", cfg.workload, cfg.seed))
	}
	host, _ := json.Marshal(map[string]any{"host": readHost(), "workload": cfg.workload, "seed": cfg.seed, "trace": traceFlag})
	fmt.Println(string(host))
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// settle collects the garbage of an earlier set-up so the next one starts
// from the same heap.
func settle() {
	runtime.GC()
	runtime.GC()
}
