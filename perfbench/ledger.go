package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"repro/internal/hashtable"
	"repro/internal/htm"
	"repro/internal/semtx"
	"repro/internal/server"
	"repro/internal/skiplist"
	"repro/internal/speculate"
	"repro/internal/txn"
)

// The layer ledger, timed from the benchmark side: each rung is one
// uncontended caller invoking one public function of one layer. A rung
// reports ns and heap allocations per call. Every traced run takes the
// ledger after its traced window; the rungs do not depend on the workload.
const (
	rungWarm = 2_000
	rungReps = 5
)

// rung times f: rungReps repetitions of n calls after a warm-up, the median
// repetition's ns per call, and heap allocations per call over all
// repetitions.
func rung(m metrics, prefix string, n int, f func() error) error {
	for i := 0; i < rungWarm; i++ {
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", prefix, err)
		}
	}
	var ns []float64
	rt0 := readRT()
	for r := 0; r < rungReps; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := f(); err != nil {
				return fmt.Errorf("%s: %w", prefix, err)
			}
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	d := diffRT(rt0, readRT())
	calls := float64(n * rungReps)
	m[prefix+"_ns"] = median(ns)
	m[prefix+"_allocs"] = d.allocObjs / calls
	return nil
}

func ledger(m metrics) error {
	d := htm.NewDomain(0, 0)
	v := htm.NewVar(d, uint64(0))
	var sink uint64
	ro := func(tx *htm.Tx) { sink += htm.Load(tx, v) }
	rmw := func(tx *htm.Tx) { htm.Store(tx, v, htm.Load(tx, v)+1) }
	abort := func(tx *htm.Tx) {
		htm.Load(tx, v)
		tx.Abort(1)
	}
	want := func(st, w htm.Status) error {
		if st != w {
			return fmt.Errorf("status %v, want %v", st, w)
		}
		return nil
	}
	if err := rung(m, "htm.ro", 50_000, func() error { return want(d.Atomically(ro), htm.Committed) }); err != nil {
		return err
	}
	if err := rung(m, "htm.rmw", 50_000, func() error { return want(d.Atomically(rmw), htm.Committed) }); err != nil {
		return err
	}
	if err := rung(m, "htm.abort", 50_000, func() error { return want(d.Atomically(abort), htm.AbortExplicit) }); err != nil {
		return err
	}

	site := speculate.Policy{}.NewSite("perfbench/rung", nil, speculate.Level{Name: "fast", Attempts: 1})
	trivial := func(tx *htm.Tx) {}
	if err := rung(m, "speculate.run", 50_000, func() error {
		r := site.Begin(d)
		for r.Next(0) {
			if r.Try(trivial) == htm.Committed {
				return nil
			}
		}
		return fmt.Errorf("trivial body did not commit")
	}); err != nil {
		return err
	}

	td := htm.NewDomain(0, 0)
	tm := txn.NewIn(td, 0)
	hot := hashtable.NewPTOTableIn(td, 64, 0)
	cold := skiplist.NewPTOSetIn(td, 0)
	var hotSet, coldSet txn.Set = hot, cold
	hot.Insert(1)
	fwd := true
	if err := rung(m, "txn.move", 20_000, func() error {
		src, dst := hotSet, coldSet
		if !fwd {
			src, dst = coldSet, hotSet
		}
		fwd = !fwd
		if !txn.Move(tm, src, dst, 1) {
			return fmt.Errorf("move of a present key failed")
		}
		return nil
	}); err != nil {
		return err
	}

	r := tm.Structures()
	r.AddSet("hot", hot)
	sem := semtx.New(tm, r)
	flip := false
	body := func(tx *semtx.Tx[*txn.Ctx, int64]) error {
		a, b := int64(2), int64(3)
		if flip {
			a, b = b, a
		}
		tx.Put("hot", a)
		tx.Delete("hot", b)
		tx.Get("hot", 1)
		return nil
	}
	if err := rung(m, "semtx.run3", 20_000, func() error {
		flip = !flip
		_, err := sem.Run(body)
		return err
	}); err != nil {
		return err
	}

	srv := server.New(server.Config{})
	defer srv.Close()
	h := srv.Handler()
	payload := []byte(`{"op":"get","key":5}`)
	rb := &resetBody{}
	req := &http.Request{
		Method:        http.MethodPost,
		URL:           &url.URL{Path: "/v1/op"},
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          rb,
		ContentLength: int64(len(payload)),
		Host:          "perfbench",
	}
	rec := &recorder{header: http.Header{}}
	return rung(m, "server.handler", 20_000, func() error {
		rb.Reset(payload)
		rec.reset()
		h.ServeHTTP(rec, req)
		if rec.status != http.StatusOK || !bytes.Contains(rec.body.Bytes(), []byte(`"ok":true`)) {
			return fmt.Errorf("handler replied %d %q", rec.status, rec.body.Bytes())
		}
		return nil
	})
}

// resetBody is a request body the rung rewinds between calls.
type resetBody struct{ bytes.Reader }

func (*resetBody) Close() error { return nil }

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) WriteHeader(s int)   { r.status = s }
func (r *recorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(b)
}

func (r *recorder) reset() {
	clear(r.header)
	r.status = 0
	r.body.Reset()
}
