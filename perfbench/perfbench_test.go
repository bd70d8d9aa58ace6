package main

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// The recorder's percentiles must match a sorted reference: the
// nearest-rank sample, within the histogram's bucket width (1/128 of the
// value) plus the half-nanosecond of in-bucket interpolation.
func TestHistQuantilesMatchSortedReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 10, 1000, 100_000} {
		var h hist
		vals := make([]int64, n)
		for i := range vals {
			// Log-normal around 2 µs with a heavy tail, plus some exact
			// small values.
			v := int64(math.Exp(r.NormFloat64()*1.5 + math.Log(2000)))
			if i%17 == 0 {
				v = int64(r.Intn(100))
			}
			vals[i] = v
			h.record(v)
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := int(math.Ceil(q * float64(n)))
			want := float64(vals[max(rank, 1)-1])
			got := h.quantile(q)
			if tol := want/subBuckets + 1; math.Abs(got-want) > tol {
				t.Errorf("n=%d q=%v: got %.1f, sorted reference %.1f (tolerance %.1f)", n, q, got, want, tol)
			}
		}
	}
}

func TestHistBucketsTileTheRange(t *testing.T) {
	for v := uint64(0); v < 1<<20; v += 1 + v/1000 {
		lo, hi := bucketBounds(bucketOf(v))
		if float64(v) < lo || float64(v) >= hi {
			t.Fatalf("value %d in bucket [%v,%v)", v, lo, hi)
		}
	}
}

// Nothing the measured loop calls to record an operation may allocate.
func TestRecordersAllocateNothingPerOperation(t *testing.T) {
	tm := newTimed(2 * time.Second)
	var i int64
	if a := testing.AllocsPerRun(1000, func() {
		i++
		tm.record(i*1000, 1500)
	}); a != 0 {
		t.Errorf("timed.record allocates %v per call", a)
	}
	tr := newTracer(time.Now(), []string{"root", "child"}, 64)
	if a := testing.AllocsPerRun(1000, func() {
		root := tr.begin(0, 1, -1)
		c := tr.begin(1, 1, root.id)
		tr.end(c)
		tr.end(root)
	}); a != 0 {
		t.Errorf("tracer begin/end allocates %v per span pair", a)
	}
	if tr.dropped == 0 {
		t.Errorf("a full span buffer should count drops")
	}
	body := []byte(`{"ok":true,"shard":2,"results":[{"found":true},{"changed":true},{}],"error":"x \"y\""}`)
	var r reply
	if a := testing.AllocsPerRun(1000, func() {
		if err := scanReply(body, &r); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("scanReply allocates %v per reply", a)
	}
}

func TestSelfTimeOnHandBuiltTree(t *testing.T) {
	// root [0,100): children a [10,30), b [20,50) overlapping a, c [90,120)
	// sticking out of root; a has a grandchild [12,18).
	spans := []span{
		{Name: 0, Parent: -1, Start: 0, End: 100},
		{Name: 1, Parent: 0, Start: 10, End: 30},
		{Name: 1, Parent: 0, Start: 20, End: 50},
		{Name: 1, Parent: 0, Start: 90, End: 120},
		{Name: 2, Parent: 1, Start: 12, End: 18},
		{Name: 0, Parent: -1, Start: 200, End: 210},
	}
	want := []int64{
		100 - 40 - 10, // children cover [10,50) and [90,100)
		20 - 6,
		30,
		30,
		6,
		10,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	sum := summarize([]string{"root", "child", "grandchild"}, spans)
	if sum[0].Count != 2 || math.Abs(sum[0].TotalUs-0.11) > 1e-12 || math.Abs(sum[0].SelfUs-0.06) > 1e-12 {
		t.Errorf("root summary %+v", sum[0])
	}
}

// The tracer's running self times, kept as spans close, must agree with
// selfTimes over the same nested tree, also when no span is buffered.
func TestRunningSelfTimeMatchesSpanTree(t *testing.T) {
	// root [0,100): child [10,30) holding grandchild [12,18), child
	// [40,50); root [200,210) holding an added grandchild [202,205).
	spans := []span{
		{Name: 0, Parent: -1, Start: 0, End: 100},
		{Name: 1, Parent: 0, Start: 10, End: 30},
		{Name: 2, Parent: 1, Start: 12, End: 18},
		{Name: 1, Parent: 0, Start: 40, End: 50},
		{Name: 0, Parent: -1, Start: 200, End: 210},
		{Name: 2, Parent: 4, Start: 202, End: 205},
	}
	tr := newTracer(time.Now(), []string{"root", "child", "grandchild"}, 0)
	tr.open()
	tr.open()
	tr.open()
	tr.close(2, 6)
	tr.close(1, 20)
	tr.open()
	tr.close(1, 10)
	tr.close(0, 100)
	tr.open()
	tr.add(2, 2, 4, 202, 205)
	tr.close(0, 10)

	var wantSelf, wantTotal [3]int64
	for i, st := range selfTimes(spans) {
		wantSelf[spans[i].Name] += st
		wantTotal[spans[i].Name] += spans[i].End - spans[i].Start
	}
	if !reflect.DeepEqual(tr.selfNs, wantSelf[:]) || !reflect.DeepEqual(tr.totalNs, wantTotal[:]) {
		t.Errorf("running self %v total %v, span tree self %v total %v", tr.selfNs, tr.totalNs, wantSelf, wantTotal)
	}
	if f := selfFrac([]*tracer{tr}, 0); math.Abs(f-77.0/110) > 1e-12 {
		t.Errorf("root self fraction %v, want %v", f, 77.0/110)
	}
	if tr.dropped != 1 || tr.depth != 0 {
		t.Errorf("dropped %d, depth %d", tr.dropped, tr.depth)
	}
}

func TestMergeTracersRebasesParents(t *testing.T) {
	names := []string{"root", "child"}
	a, b := newTracer(time.Now(), names, 8), newTracer(time.Now(), names, 8)
	for _, tr := range []*tracer{a, b} {
		root := tr.begin(0, 1, -1)
		tr.end(tr.begin(1, 1, root.id))
		tr.end(root)
	}
	spans, hists, _ := mergeTracers([]*tracer{a, b})
	if spans[3].Parent != 2 || spans[1].Parent != 0 {
		t.Errorf("parents not rebased: %+v", spans)
	}
	if hists[0].n != 2 || hists[1].n != 2 {
		t.Errorf("histograms not merged")
	}
}

func TestScanReply(t *testing.T) {
	var r reply
	cases := []struct {
		body string
		want reply
	}{
		{`{"ok":true,"found":true,"shard":3}` + "\n", reply{ok: true, found: true, failedOp: -1}},
		{`{"ok":true,"moved":2,"shard":-1,"batched":true}`, reply{ok: true, moved: 2, failedOp: -1}},
		{`{"ok":false,"shard":1,"failed_op":0,"error":"op 0: asserted true, observed false"}`, reply{failedOp: 0}},
		{`{"ok":true,"shard":0,"results":[{"found":true},{},{"changed":true,"value":-4}]}`, reply{ok: true, failedOp: -1, nres: 3,
			results: [8]txnResult{{found: true}, {}, {changed: true}}}},
	}
	for _, c := range cases {
		if err := scanReply([]byte(c.body), &r); err != nil {
			t.Errorf("%s: %v", c.body, err)
			continue
		}
		if r != c.want {
			t.Errorf("%s: got %+v want %+v", c.body, r, c.want)
		}
	}
	for _, bad := range []string{``, `{"ok":tru}`, `{"ok":true`, `[1]`} {
		if scanReply([]byte(bad), &r) == nil {
			t.Errorf("%q: accepted malformed reply", bad)
		}
	}
}

// The inputs are a function of the seed alone.
func TestInputsFollowTheSeed(t *testing.T) {
	if !reflect.DeepEqual(genLibOps(3), genLibOps(3)) || reflect.DeepEqual(genLibOps(3), genLibOps(4)) {
		t.Errorf("lib-compose operations are not a function of the seed")
	}
	a, ha := genSrvOps(3)
	b, hb := genSrvOps(3)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(ha, hb) {
		t.Errorf("serve-mix requests are not a function of the seed")
	}
}

func TestGoldenCoversEveryPoint(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != simVariants {
		t.Fatalf("golden holds %d variants, want %d", len(g), simVariants)
	}
	for v, pts := range g {
		for _, k := range simKinds {
			for _, th := range simThreads {
				if c, ok := pts[pointKey(k, th)]; !ok || c.Ops == 0 {
					t.Errorf("variant %s lacks point %s", v, pointKey(k, th))
				}
			}
		}
	}
}

// One cheap point must reproduce its golden counts exactly.
func TestPointMatchesGolden(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	k := simKinds[len(simKinds)-1]
	got, _, _ := runPoint(k, 1, k.window, 2)
	if want := g["2"][pointKey(k, 1)]; got != want {
		t.Errorf("%s: got %+v, golden %+v", pointKey(k, 1), got, want)
	}
}
