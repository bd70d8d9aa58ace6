package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
)

// serve-mix: server.New with its defaults (4 shards, tuner and admission
// on) behind net/http on a loopback listener inside the benchmark process,
// driven by two keep-alive callers in closed loops. One process keeps two
// Go runtimes from competing for two cores. Transport, the JSON codec,
// routing, admission, the tuner and telemetry dominate each request.
const (
	srvPlane     = 4096 // keys; caller c owns the keys k with k%2 == c
	srvSeqLen    = 1 << 14
	srvCallers   = 2
	srvWarmOps   = 55_000 // fixed-count warm-up per caller per set-up
	srvSetups    = 3
	srvSpanCap   = 1 << 16
	srvZipfS     = 1.1
	srvZipfV     = 16
	srvWrongPerm = 200 // per-mille of txn bodies whose first assert is meant to fail
)

type srvClass uint8

const (
	srvGet srvClass = iota
	srvPut
	srvDel
	srvMoveHC
	srvMoveCH
	srvMoveAllHC
	srvMoveAllCH
	srvTxnPut // get k (assert), put k, get k (assert true)
	srvTxnDel // get k (assert), del k, get k (assert false)
)

var srvMix = []struct {
	class    srvClass
	permille int
}{
	{srvGet, 700},
	{srvPut, 75}, {srvDel, 75},
	{srvMoveHC, 25}, {srvMoveCH, 25},
	{srvMoveAllHC, 25}, {srvMoveAllCH, 25},
	{srvTxnPut, 25}, {srvTxnDel, 25},
}

// Client span names: one per request class.
const (
	ssGet = iota
	ssWrite
	ssMove
	ssTxn
)

var srvSpanNames = []string{"server.get", "server.write", "server.move", "server.txn"}

var srvSpanOf = [...]int{
	srvGet: ssGet, srvPut: ssWrite, srvDel: ssWrite,
	srvMoveHC: ssMove, srvMoveCH: ssMove, srvMoveAllHC: ssMove, srvMoveAllCH: ssMove,
	srvTxnPut: ssTxn, srvTxnDel: ssTxn,
}

// srvOp is one pre-built request. A txn op carries two encodings, its
// first assert true and false; the caller picks one from its model of the
// key at send time, and wrong marks the ones meant to draw a 409.
type srvOp struct {
	class srvClass
	wrong bool
	keys  [4]int64
	req   [2][]byte
}

func genSrvOps(seed int64) (ops [][]srvOp, initHot []bool) {
	r0 := rand.New(rand.NewSource(seed ^ 0x5e7e))
	perm := r0.Perm(srvPlane / srvCallers)
	initHot = make([]bool, srvPlane)
	for k := range initHot {
		initHot[k] = r0.Intn(2) == 0
	}
	ops = make([][]srvOp, srvCallers)
	for c := range ops {
		r := rand.New(rand.NewSource(seed*1_000_033 + int64(c) + 7))
		z := rand.NewZipf(r, srvZipfS, srvZipfV, uint64(srvPlane/srvCallers-1))
		key := func() int64 { return int64(perm[z.Uint64()])*srvCallers + int64(c) }
		seq := make([]srvOp, srvSeqLen)
		for i := range seq {
			op := &seq[i]
			x := r.Intn(1000)
			for _, m := range srvMix {
				if x < m.permille {
					op.class = m.class
					break
				}
				x -= m.permille
			}
			for j := 0; j < len(op.keys); {
				if k := key(); !slices.Contains(op.keys[:j], k) {
					op.keys[j] = k
					j++
				}
			}
			op.wrong = r.Intn(1000) < srvWrongPerm
			k := op.keys[0]
			switch op.class {
			case srvGet:
				op.req[0] = opRequest(`{"op":"get","key":%d}`, k)
			case srvPut:
				op.req[0] = opRequest(`{"op":"put","key":%d}`, k)
			case srvDel:
				op.req[0] = opRequest(`{"op":"del","key":%d}`, k)
			case srvMoveHC:
				op.req[0] = opRequest(`{"op":"move","src":"hot","dst":"cold","key":%d}`, k)
			case srvMoveCH:
				op.req[0] = opRequest(`{"op":"move","src":"cold","dst":"hot","key":%d}`, k)
			case srvMoveAllHC, srvMoveAllCH:
				src, dst := "hot", "cold"
				if op.class == srvMoveAllCH {
					src, dst = dst, src
				}
				op.req[0] = opRequest(`{"op":"moveall","src":%q,"dst":%q,"keys":[%d,%d,%d,%d]}`,
					src, dst, op.keys[0], op.keys[1], op.keys[2], op.keys[3])
			case srvTxnPut, srvTxnDel:
				verb, after := "put", true
				if op.class == srvTxnDel {
					verb, after = "del", false
				}
				for a := 0; a < 2; a++ {
					op.req[a] = postRequest("/v1/txn", fmt.Appendf(nil,
						`{"ops":[{"op":"get","key":%d,"assert":%v},{"op":%q,"key":%d},{"op":"get","key":%d,"assert":%v}]}`,
						k, a == 1, verb, k, k, after))
				}
			}
		}
		ops[c] = seq
	}
	return ops, initHot
}

func opRequest(format string, args ...any) []byte {
	return postRequest("/v1/op", fmt.Appendf(nil, format, args...))
}

// srvWorld is one set-up: a fresh server, its listener and the callers'
// connections.
type srvWorld struct {
	srv     *server.Server
	hs      *http.Server
	served  chan error
	callers []*srvCaller
	// setupSheds counts the 429s the set-up met: retried while loading the
	// key plane, counted as refused during the warm-up.
	setupSheds int64
}

// srvCaller is one closed-loop caller with its model of the keys it owns.
type srvCaller struct {
	cl      *rawClient
	ops     []srvOp
	pos     int
	inHot   []bool // indexed by key
	inCold  []bool
	failed  int64 // refused (429) or wrong replies
	shed    int64
	wrongs  int64 // replies that broke their operation's contract
	txns    int64
	txn409  int64
	lastErr error
	rep     reply
	tr      *tracer
	opID    uint32
}

func newSrvWorld(ops [][]srvOp, initHot []bool) (*srvWorld, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	w := &srvWorld{srv: server.New(server.Config{}), served: make(chan error, 1)}
	w.hs = &http.Server{Handler: w.srv.Handler()}
	go func() { w.served <- w.hs.Serve(ln) }()
	for c := 0; c < srvCallers; c++ {
		cl, err := dialRaw(ln.Addr().String())
		if err != nil {
			w.close()
			return nil, err
		}
		w.callers = append(w.callers, &srvCaller{
			cl: cl, ops: ops[c],
			inHot: make([]bool, srvPlane), inCold: make([]bool, srvPlane),
		})
	}
	// Load the key plane through the API, one put at a time from one
	// client, retrying each 429.
	loader := w.callers[0]
	for k := int64(0); k < srvPlane; k++ {
		if !initHot[k] {
			continue
		}
		req := opRequest(`{"op":"put","key":%d}`, k)
		for {
			status, body, err := loader.cl.do(req)
			if err != nil {
				w.close()
				return nil, fmt.Errorf("load key %d: %w", k, err)
			}
			if status == http.StatusTooManyRequests {
				w.setupSheds++
				time.Sleep(time.Millisecond)
				continue
			}
			if err := scanReply(body, &loader.rep); err != nil || status != http.StatusOK || !loader.rep.ok || !loader.rep.changed {
				w.close()
				return nil, fmt.Errorf("load key %d: status %d reply %q", k, status, body)
			}
			break
		}
		w.callers[k%srvCallers].inHot[k] = true
	}
	return w, nil
}

func (w *srvWorld) warm() error {
	runCallers(w.callers, func(c *srvCaller) {
		for i := 0; i < srvWarmOps && c.lastErr == nil; i++ {
			c.exec()
		}
	})
	for _, c := range w.callers {
		if c.lastErr != nil {
			return c.lastErr
		}
		w.setupSheds += c.shed
		// wrongs is kept: a contract broken during the warm-up still fails
		// the final check.
		c.failed, c.shed, c.txns, c.txn409 = 0, 0, 0, 0
	}
	return nil
}

func (w *srvWorld) close() {
	for _, c := range w.callers {
		c.cl.close()
	}
	w.hs.Close()
	<-w.served
	w.srv.Close()
}

// exec sends the caller's next request and checks the reply against its
// operation's contract and the caller's model of its keys.
func (c *srvCaller) exec() {
	op := &c.ops[c.pos]
	c.pos = (c.pos + 1) & (srvSeqLen - 1)
	k := op.keys[0]
	req := op.req[0]
	if op.class == srvTxnPut || op.class == srvTxnDel {
		assert := c.inHot[k] != op.wrong
		if assert {
			req = op.req[1]
		}
	}
	var sp token
	if c.tr != nil {
		c.opID++
		sp = c.tr.begin(srvSpanOf[op.class], c.opID, -1)
	}
	status, body, err := c.cl.do(req)
	if c.tr != nil {
		c.tr.end(sp)
	}
	if err != nil {
		c.lastErr = err
		return
	}
	if op.class == srvTxnPut || op.class == srvTxnDel {
		c.txns++
	}
	if status == http.StatusTooManyRequests && op.class != srvGet {
		c.shed++
		c.failed++
		return
	}
	if c.check(op, status, body) {
		return
	}
	c.wrongs++
	c.failed++
}

// check reports whether the reply matches the model, and applies the
// operation's effect to the model when it does.
func (c *srvCaller) check(op *srvOp, status int, body []byte) bool {
	r := &c.rep
	if scanReply(body, r) != nil {
		return false
	}
	k := op.keys[0]
	switch op.class {
	case srvGet:
		return status == http.StatusOK && r.ok && r.found == c.inHot[k]
	case srvPut:
		ok := status == http.StatusOK && r.ok && r.changed == !c.inHot[k]
		c.inHot[k] = true
		return ok
	case srvDel:
		ok := status == http.StatusOK && r.ok && r.changed == c.inHot[k]
		c.inHot[k] = false
		return ok
	case srvMoveHC, srvMoveCH:
		src, dst := c.inHot, c.inCold
		if op.class == srvMoveCH {
			src, dst = dst, src
		}
		want := src[k] && !dst[k]
		if want {
			src[k], dst[k] = false, true
		}
		return status == http.StatusOK && r.ok && (r.moved == 1) == want
	case srvMoveAllHC, srvMoveAllCH:
		src, dst := c.inHot, c.inCold
		if op.class == srvMoveAllCH {
			src, dst = dst, src
		}
		want := 0
		for _, key := range op.keys {
			if src[key] && !dst[key] {
				src[key], dst[key] = false, true
				want++
			}
		}
		return status == http.StatusOK && r.ok && r.moved == int64(want)
	case srvTxnPut, srvTxnDel:
		if op.wrong {
			// The first assert contradicts the model: the body must abort
			// with 409 at op 0 and publish nothing.
			if status == http.StatusConflict && !r.ok && r.failedOp == 0 {
				c.txn409++
				return true
			}
			return false
		}
		was := c.inHot[k]
		put := op.class == srvTxnPut
		c.inHot[k] = put
		return status == http.StatusOK && r.ok && r.nres == 3 &&
			r.results[0].found == was && r.results[1].changed == (was != put) && r.results[2].found == put
	}
	return false
}

func (w *srvWorld) measure(dur time.Duration) (window, error) {
	win := closedLoop(w.callers, dur, func(c *srvCaller) bool {
		c.exec()
		return c.lastErr == nil
	})
	for _, c := range w.callers {
		if c.lastErr != nil {
			return win, c.lastErr
		}
		win.failed += c.failed
	}
	return win, nil
}

// check compares every key of the plane, in hot and in cold, with the
// callers' models, through the API.
func (w *srvWorld) check() error {
	cl := w.callers[0]
	for k := int64(0); k < srvPlane; k++ {
		owner := w.callers[k%srvCallers]
		for _, set := range []string{"hot", "cold"} {
			want := owner.inHot[k]
			if set == "cold" {
				want = owner.inCold[k]
			}
			status, body, err := cl.cl.do(opRequest(`{"op":"get","struct":%q,"key":%d}`, set, k))
			if err != nil {
				return fmt.Errorf("final check: %w", err)
			}
			if err := scanReply(body, &cl.rep); err != nil || status != http.StatusOK || cl.rep.found != want {
				return fmt.Errorf("serve-mix: key %d in %s: got status %d %q, model says present=%v", k, set, status, body, want)
			}
		}
	}
	for _, c := range w.callers {
		if c.wrongs > 0 {
			return fmt.Errorf("serve-mix: %d replies broke their contract", c.wrongs)
		}
	}
	return nil
}

func runServeMix(cfg runCfg) (result, error) {
	ops, initHot := genSrvOps(cfg.seed)
	build := func() (*srvWorld, error) {
		w, err := newSrvWorld(ops, initHot)
		if err != nil {
			return nil, err
		}
		if err := w.warm(); err != nil {
			w.close()
			return nil, err
		}
		return w, nil
	}
	if !cfg.trace {
		var setups []float64
		var w *srvWorld
		for i := 0; i < srvSetups; i++ {
			if w != nil {
				w.close()
				w = nil
			}
			settle()
			t0 := time.Now()
			var err error
			if w, err = build(); err != nil {
				return result{}, err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		defer w.close()
		win, err := w.measure(cfg.window())
		if err != nil {
			return result{}, err
		}
		correct := true
		if err := w.check(); err != nil {
			fmt.Println(err)
			correct = false
			win.failed = win.ops
		}
		return finish(cfg, correct, win.ops, win.failed, endToEnd(win, setups))
	}

	half := cfg.window() / 2
	ref, err := build()
	if err != nil {
		return result{}, err
	}
	refWin, err := ref.measure(half)
	if err != nil {
		ref.close()
		return result{}, err
	}
	refErr := ref.check()
	ref.close()
	ref = nil
	settle()

	w, err := build()
	if err != nil {
		return result{}, err
	}
	defer w.close()
	base := time.Now()
	for _, c := range w.callers {
		c.tr = newTracer(base, srvSpanNames, srvSpanCap)
		c.cl.wire = 0
	}
	st0, tel0 := w.srv.Stats(), w.srv.Registry().Snapshot()
	win, err := w.measure(half)
	if err != nil {
		return result{}, err
	}
	st1, tel1 := w.srv.Stats(), w.srv.Registry().Snapshot()
	checkErr := w.check()
	correct := checkErr == nil && refErr == nil
	if !correct {
		fmt.Println(checkErr, refErr)
		win.failed = win.ops
	}

	tracers := make([]*tracer, len(w.callers))
	var wire, txns, txn409 int64
	for i, c := range w.callers {
		tracers[i] = c.tr
		wire += c.cl.wire
		txns += c.txns
		txn409 += c.txn409
	}
	spans, hists, dropped := mergeTracers(tracers)
	if err := writeSpans(cfg.spans, cfg.workload, cfg.seed, srvSpanNames, spans, dropped); err != nil {
		return result{}, err
	}

	ops64 := float64(max(win.ops, 1))
	m := metrics{}
	d := tel1.Delta(tel0)
	serverHTM(m, d, ops64)
	speculateLayer(m, d, ops64)
	for i, name := range []string{"get", "write", "move", "txn"} {
		m["server."+name+"_us_p50"] = hists[i].quantileUs(0.5)
		m["server."+name+"_us_p99"] = hists[i].quantileUs(0.99)
	}
	m["server.txn_409_frac"] = ratio(float64(txn409), float64(txns))
	m["server.sheds"] = float64(st1.Sheds - st0.Sheds)
	m["server.setup_sheds"] = float64(w.setupSheds)
	m["server.publications_per_op"] = float64(st1.Publications-st0.Publications) / ops64
	minRatio, stripes := 1.0, 0.0
	for _, sh := range st1.Shards {
		minRatio = min(minRatio, sh.CommitRatio)
		stripes += float64(sh.Tune.Stripes)
	}
	m["server.min_commit_ratio"] = minRatio
	m["server.wire_bytes_per_op"] = float64(wire) / ops64
	m["tune.actions"] = float64(st1.TuneActions - st0.TuneActions)
	m["tune.stripes"] = stripes / float64(max(len(st1.Shards), 1))
	runtimeLayer(m, win)
	m["trace.overhead_frac"] = 1 - win.throughput()/refWin.throughput()
	if err := ledger(m); err != nil {
		return result{}, err
	}
	return finish(cfg, correct, win.ops, win.failed, m)
}

// serverHTM fills the htm per-operation counters from the shards'
// speculation sites: every request's transactional work runs through its
// shard's manager, whose site counts each attempt by outcome.
func serverHTM(m metrics, d telemetry.Snapshot, ops float64) {
	var commits, conflicts, alias, capacity, explicit float64
	for _, s := range d.Sites {
		commits += float64(s.Commits)
		conflicts += float64(s.Conflicts)
		alias += float64(s.FalseConflicts)
		capacity += float64(s.Capacity)
		explicit += float64(s.Explicit)
	}
	m["htm.commits_per_op"] = commits / ops
	m["htm.conflict_aborts_per_op"] = conflicts / ops
	m["htm.alias_aborts_per_op"] = alias / ops
	m["htm.capacity_aborts_per_op"] = capacity / ops
	m["htm.explicit_aborts_per_op"] = explicit / ops
	m["htm.commit_ratio"] = ratio(commits, commits+conflicts+capacity+explicit)
}
