package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"syscall"
)

// Go runtime counters read through runtime/metrics, which, unlike
// runtime.ReadMemStats, does not stop the world.
var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/goal:bytes",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
	"/gc/heap/tiny/allocs:objects",
}

type rtSample struct {
	allocBytes, gcCycles, heapGoal uint64
	allocObjs                      uint64 // heap objects, tiny ones included
	gcCPU, totalCPU                float64
	pauses, schedLat               *rtmetrics.Float64Histogram
}

func readRT() rtSample {
	s := make([]rtmetrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == rtmetrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == rtmetrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	h := func(i int) *rtmetrics.Float64Histogram {
		if s[i].Value.Kind() == rtmetrics.KindFloat64Histogram {
			return s[i].Value.Float64Histogram()
		}
		return nil
	}
	return rtSample{
		allocBytes: u(0), allocObjs: u(1) + u(8), gcCycles: u(2), heapGoal: u(5),
		gcCPU: f(3), totalCPU: f(4),
		pauses: h(6), schedLat: h(7),
	}
}

// rtDelta is what the runtime did between two samples.
type rtDelta struct {
	allocBytes, allocObjs, gcCycles float64
	gcCPUFrac                       float64
	heapGoalMB                      float64 // at the later sample; the window median under a meter
	pauseP99Us, schedWaitP99Us      float64
}

func diffRT(a, b rtSample) rtDelta {
	d := rtDelta{
		allocBytes: float64(b.allocBytes - a.allocBytes),
		allocObjs:  float64(b.allocObjs - a.allocObjs),
		gcCycles:   float64(b.gcCycles - a.gcCycles),
		heapGoalMB: float64(b.heapGoal) / (1 << 20),
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	d.pauseP99Us = histDeltaQuantile(a.pauses, b.pauses, 0.99) * 1e6
	d.schedWaitP99Us = histDeltaQuantile(a.schedLat, b.schedLat, 0.99) * 1e6
	return d
}

// histDeltaQuantile is the q-quantile of the observations recorded between
// two cumulative runtime histograms, interpolated inside its bucket
// (open-ended buckets report their finite bound).
func histDeltaQuantile(a, b *rtmetrics.Float64Histogram, q float64) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var n uint64
	for i := range b.Counts {
		n += b.Counts[i] - a.Counts[i]
	}
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum float64
	for i := range b.Counts {
		c := float64(b.Counts[i] - a.Counts[i])
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := b.Buckets[i], b.Buckets[i+1]
			if math.IsInf(lo, 0) {
				return hi
			}
			if math.IsInf(hi, 0) {
				return lo
			}
			return lo + (hi-lo)*(rank-cum)/c
		}
		cum += c
	}
	return b.Buckets[len(b.Buckets)-2]
}

// hostInfo is the machine description printed beside every result.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

func readHost() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Kernel:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		h.Kernel = utsString(u.Sysname[:]) + " " + utsString(u.Release[:]) + " " + utsString(u.Machine[:])
	}
	return h
}

func utsString[T int8 | uint8](f []T) string {
	b := make([]byte, 0, len(f))
	for _, c := range f {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(bytes.TrimSpace(b))
}
