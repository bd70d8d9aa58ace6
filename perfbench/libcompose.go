package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/hashtable"
	"repro/internal/htm"
	"repro/internal/msqueue"
	"repro/internal/semtx"
	"repro/internal/skiplist"
	"repro/internal/speculate"
	"repro/internal/telemetry"
	"repro/internal/txn"
)

// lib-compose: in-process library traffic on one htm domain. One caller
// runs a closed loop over a 4096-key plane, small enough to stay
// cache-resident, so the timing follows the code rather than the shared
// memory path. Every cycle is spent in htm, speculate, the structures, txn
// or semtx. The caller allocates a few KB per operation, so the collector
// runs all the time; a single caller leaves it the second CPU of a two-CPU
// host. With two callers, each collection's dedicated mark worker takes a
// caller's CPU, and the run-to-run spread of throughput and latency about
// doubled (README.md).
const (
	libPlane   = 4096
	libSeqLen  = 1 << 16 // operations pre-generated per caller, cycled
	libCallers = 1
	libWarmOps = 400_000 // fixed-count warm-up per caller per set-up
	libSetups  = 3
	libSpanCap = 1 << 16 // buffered spans per caller in a traced run
	libZipfS   = 1.1
	libZipfV   = 16
)

type libClass uint8

const (
	libContains libClass = iota
	libInsert
	libRemove
	libMoveHC
	libMoveCH
	libMoveAllHC
	libMoveAllCH
	libSemPut  // semtx: put hot, enqueue two, get cold
	libSemTake // semtx: dequeue, delete hot, get cold
	libDequeue
)

// libMix is the operation mix in per-mille.
var libMix = []struct {
	class    libClass
	permille int
}{
	{libContains, 300},
	{libInsert, 75}, {libRemove, 75},
	{libMoveHC, 125}, {libMoveCH, 125},
	{libMoveAllHC, 50}, {libMoveAllCH, 50},
	{libSemPut, 60}, {libSemTake, 60},
	{libDequeue, 80},
}

// Span names of the traced run: one root per operation class, children
// around each tx.* call inside semtx bodies.
const (
	lsContains = iota
	lsUpdate
	lsMove
	lsMoveAll
	lsSemtx
	lsDequeue
	lsTxGet
	lsTxPut
	lsTxEnqueue
	lsTxDequeue
	lsTxDelete
)

var libSpanNames = []string{
	"hashtable.contains", "hashtable.update", "txn.move", "txn.moveall",
	"semtx.run", "msqueue.dequeue",
	"semtx.tx.get", "semtx.tx.put", "semtx.tx.enqueue", "semtx.tx.dequeue", "semtx.tx.delete",
}

var libRootSpan = [...]int{
	libContains: lsContains, libInsert: lsUpdate, libRemove: lsUpdate,
	libMoveHC: lsMove, libMoveCH: lsMove, libMoveAllHC: lsMoveAll, libMoveAllCH: lsMoveAll,
	libSemPut: lsSemtx, libSemTake: lsSemtx, libDequeue: lsDequeue,
}

type libOp struct {
	class libClass
	k     [4]int64
}

// genLibOps draws each caller's operation sequence from the seed: the
// class from libMix, keys from a zipf distribution over the plane whose
// ranks are scattered over keys by a seed-derived permutation (the hot
// keys do not share a bucket). MoveAll keys are distinct.
func genLibOps(seed int64) [][]libOp {
	perm := rand.New(rand.NewSource(seed)).Perm(libPlane)
	out := make([][]libOp, libCallers)
	for c := range out {
		r := rand.New(rand.NewSource(seed*1_000_003 + int64(c) + 1))
		z := rand.NewZipf(r, libZipfS, libZipfV, libPlane-1)
		key := func() int64 { return int64(perm[z.Uint64()]) }
		ops := make([]libOp, libSeqLen)
		for i := range ops {
			x := r.Intn(1000)
			for _, m := range libMix {
				if x < m.permille {
					ops[i].class = m.class
					break
				}
				x -= m.permille
			}
			for j := 0; j < len(ops[i].k); {
				if k := key(); !slices.Contains(ops[i].k[:j], k) {
					ops[i].k[j] = k
					j++
				}
			}
		}
		out[c] = ops
	}
	return out
}

// libWorld is one set-up: a txn.Manager whose registry holds a PTO hash
// table "hot", a PTO skiplist "cold" and a PTO queue "q", all on the
// manager's domain, plus a semtx.Manager over that registry.
type libWorld struct {
	d         *htm.Domain
	m         *txn.Manager
	hot       *hashtable.PTOTable
	cold      *skiplist.PTOSet
	q         *msqueue.PTOQueue
	hotSet    txn.Set
	coldSet   txn.Set
	sem       *semtx.Manager[*txn.Ctx, int64]
	reg       *telemetry.Registry // traced run only
	open      *telemetry.Open
	hot0      int64
	cold0     int64
	q0        int64
	callers   []*libCaller
	traceBase time.Time
}

func newLibWorld(seed int64, ops [][]libOp, traced bool) *libWorld {
	w := &libWorld{d: htm.NewDomain(0, 0)}
	w.m = txn.NewIn(w.d, 0)
	w.hot = hashtable.NewPTOTableIn(w.d, 64, 0)
	w.cold = skiplist.NewPTOSetIn(w.d, 0)
	w.q = msqueue.NewPTOIn(w.d, 0)
	if traced {
		// The telemetry registry is attached in the traced run only, so
		// the untraced hot path carries no counters.
		w.reg = telemetry.NewRegistry()
		pol := speculate.Policy{}.WithMetrics(w.reg)
		w.m.WithPolicy(pol)
		w.hot.WithPolicy(pol)
		w.cold.WithPolicy(pol)
		w.q.WithPolicy(pol)
	}
	w.hotSet, w.coldSet = w.hot, w.cold
	r := w.m.Structures()
	r.AddSet("hot", w.hot)
	r.AddSet("cold", w.cold)
	r.AddQueue("q", w.q)
	w.sem = semtx.New(w.m, r)
	if traced {
		w.open = w.reg.Open("semtx")
		w.sem.WithTelemetry(w.open)
	}
	pre := rand.New(rand.NewSource(seed ^ 0x5eed))
	for k := int64(0); k < libPlane; k++ {
		switch pre.Intn(4) {
		case 0, 1:
			w.hot.Insert(k)
		case 2:
			w.cold.Insert(k)
		}
	}
	for i := int64(0); i < 64; i++ {
		w.q.Enqueue(i)
	}
	w.hot0, w.cold0, w.q0 = int64(len(w.hot.Keys())), int64(len(w.cold.Keys())), int64(w.q.Len())
	w.traceBase = time.Now()
	for c := 0; c < libCallers; c++ {
		w.callers = append(w.callers, newLibCaller(w, ops[c]))
	}
	return w
}

// libCaller is one closed-loop caller. Everything the measured loop
// touches is allocated here, before the window.
type libCaller struct {
	w              *libWorld
	ops            []libOp
	pos            int
	cur            *libOp
	dHot, dCold    int64 // net size changes this caller's results imply
	dQ             int64
	changed, deqOK bool
	bodyPut        func(*semtx.Tx[*txn.Ctx, int64]) error
	bodyTake       func(*semtx.Tx[*txn.Ctx, int64]) error
	n, failed      int64
	timed          *timed
	tr             *tracer // traced window only
	root           int32
	opID           uint32
}

func newLibCaller(w *libWorld, ops []libOp) *libCaller {
	c := &libCaller{w: w, ops: ops}
	c.bodyPut = func(tx *semtx.Tx[*txn.Ctx, int64]) error {
		k := &c.cur.k
		t := c.child(lsTxPut)
		c.changed = tx.Put("hot", k[0])
		c.endChild(t)
		t = c.child(lsTxEnqueue)
		tx.Enqueue("q", k[2])
		c.endChild(t)
		t = c.child(lsTxEnqueue)
		tx.Enqueue("q", k[3])
		c.endChild(t)
		t = c.child(lsTxGet)
		tx.Get("cold", k[1])
		c.endChild(t)
		return nil
	}
	c.bodyTake = func(tx *semtx.Tx[*txn.Ctx, int64]) error {
		k := &c.cur.k
		t := c.child(lsTxDequeue)
		_, c.deqOK = tx.Dequeue("q")
		c.endChild(t)
		t = c.child(lsTxDelete)
		c.changed = tx.Delete("hot", k[0])
		c.endChild(t)
		t = c.child(lsTxGet)
		tx.Get("cold", k[1])
		c.endChild(t)
		return nil
	}
	return c
}

func (c *libCaller) child(name int) token {
	if c.tr == nil {
		return token{}
	}
	return c.tr.begin(name, c.opID, c.root)
}

func (c *libCaller) endChild(t token) {
	if c.tr != nil {
		c.tr.end(t)
	}
}

// exec runs the caller's next operation and folds its result into the
// caller's expected size changes.
func (c *libCaller) exec() {
	op := &c.ops[c.pos]
	c.pos = (c.pos + 1) & (libSeqLen - 1)
	c.cur = op
	w := c.w
	var root token
	if c.tr != nil {
		c.opID++
		root = c.tr.begin(libRootSpan[op.class], c.opID, -1)
		c.root = root.id
	}
	switch op.class {
	case libContains:
		w.hot.Contains(op.k[0])
	case libInsert:
		if w.hot.Insert(op.k[0]) {
			c.dHot++
		}
	case libRemove:
		if w.hot.Remove(op.k[0]) {
			c.dHot--
		}
	case libMoveHC:
		if txn.Move(w.m, w.hotSet, w.coldSet, op.k[0]) {
			c.dHot--
			c.dCold++
		}
	case libMoveCH:
		if txn.Move(w.m, w.coldSet, w.hotSet, op.k[0]) {
			c.dCold--
			c.dHot++
		}
	case libMoveAllHC:
		n := int64(txn.MoveAll(w.m, w.hotSet, w.coldSet, op.k[:]...))
		c.dHot -= n
		c.dCold += n
	case libMoveAllCH:
		n := int64(txn.MoveAll(w.m, w.coldSet, w.hotSet, op.k[:]...))
		c.dCold -= n
		c.dHot += n
	case libSemPut:
		if _, err := w.sem.Run(c.bodyPut); err != nil {
			c.failed++
			break
		}
		if c.changed {
			c.dHot++
		}
		c.dQ += 2
	case libSemTake:
		if _, err := w.sem.Run(c.bodyTake); err != nil {
			c.failed++
			break
		}
		if c.deqOK {
			c.dQ--
		}
		if c.changed {
			c.dHot--
		}
	case libDequeue:
		if _, ok := w.q.Dequeue(); ok {
			c.dQ--
		}
	}
	if c.tr != nil {
		c.tr.end(root)
	}
}

// runCallers runs f on every caller concurrently and waits for all.
func runCallers[T any](cs []T, f func(T)) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c T) {
			defer wg.Done()
			f(c)
		}(c)
	}
	wg.Wait()
}

func (w *libWorld) warm() {
	runCallers(w.callers, func(c *libCaller) {
		for i := 0; i < libWarmOps; i++ {
			c.exec()
		}
	})
}

// measure runs the closed loops until dur has passed.
func (w *libWorld) measure(dur time.Duration) window {
	win := closedLoop(w.callers, dur, func(c *libCaller) bool {
		c.exec()
		return true
	})
	for _, c := range w.callers {
		win.failed += c.failed
	}
	return win
}

// check is the conservation check at quiescence: the final sizes of hot,
// cold and the queue must equal the set-up sizes plus the changes every
// caller's results imply, and each structure's own counter must agree
// with its contents.
func (w *libWorld) check() error {
	var dh, dc, dq int64
	for _, c := range w.callers {
		dh += c.dHot
		dc += c.dCold
		dq += c.dQ
	}
	hot, cold, q := int64(len(w.hot.Keys())), int64(len(w.cold.Keys())), int64(w.q.Len())
	switch {
	case hot != w.hot0+dh:
		return fmt.Errorf("lib-compose: hot holds %d keys, results imply %d", hot, w.hot0+dh)
	case cold != w.cold0+dc:
		return fmt.Errorf("lib-compose: cold holds %d keys, results imply %d", cold, w.cold0+dc)
	case q != w.q0+dq:
		return fmt.Errorf("lib-compose: queue holds %d values, results imply %d", q, w.q0+dq)
	case int64(w.hot.Len()) != hot:
		return fmt.Errorf("lib-compose: hot counts %d keys, holds %d", w.hot.Len(), hot)
	case int64(w.cold.Len()) != cold:
		return fmt.Errorf("lib-compose: cold counts %d keys, holds %d", w.cold.Len(), cold)
	}
	return nil
}

func runLibCompose(cfg runCfg) (result, error) {
	ops := genLibOps(cfg.seed)
	if !cfg.trace {
		var setups []float64
		var w *libWorld
		for i := 0; i < libSetups; i++ {
			w = nil
			settle()
			t0 := time.Now()
			w = newLibWorld(cfg.seed, ops, false)
			w.warm()
			setups = append(setups, time.Since(t0).Seconds())
		}
		win := w.measure(cfg.window())
		correct := true
		if err := w.check(); err != nil {
			fmt.Println(err)
			correct = false
			win.failed = win.ops
		}
		return finish(cfg, correct, win.ops, win.failed, endToEnd(win, setups))
	}

	// Traced run: an untraced reference window, then the traced window on
	// a fresh world with telemetry attached and spans recorded; each half
	// as long as the untraced run's window.
	half := cfg.window() / 2
	ref := newLibWorld(cfg.seed, ops, false)
	ref.warm()
	refWin := ref.measure(half)
	refErr := ref.check()
	ref = nil
	settle()

	w := newLibWorld(cfg.seed, ops, true)
	w.warm()
	for _, c := range w.callers {
		c.tr = newTracer(w.traceBase, libSpanNames, libSpanCap)
	}
	st0, reg0, open0, res0 := w.d.Stats(), w.reg.Snapshot(), w.open.Snapshot(), w.hot.Resizes()
	win := w.measure(half)
	st1, reg1, open1, res1 := w.d.Stats(), w.reg.Snapshot(), w.open.Snapshot(), w.hot.Resizes()
	err := w.check()
	correct := err == nil && refErr == nil
	if !correct {
		fmt.Println(err, refErr)
		win.failed = win.ops
	}

	tracers := make([]*tracer, len(w.callers))
	for i, c := range w.callers {
		tracers[i] = c.tr
	}
	spans, hists, dropped := mergeTracers(tracers)
	if err := writeSpans(cfg.spans, cfg.workload, cfg.seed, libSpanNames, spans, dropped); err != nil {
		return result{}, err
	}

	ops64 := float64(max(win.ops, 1))
	m := metrics{}
	htmLayer(m, st0, st1, ops64)
	d := reg1.Delta(reg0)
	speculateLayer(m, d, ops64)
	for _, cs := range d.Composed {
		if cs.Name == "txn/atomic" {
			m["txn.mcas_publications_per_op"] = float64(cs.MCASAttempts) / ops64
			m["txn.restarts_per_op"] = float64(cs.Restarts) / ops64
		}
	}
	for _, s := range d.Sites {
		if s.Name == "txn/atomic" {
			// Composed operations that committed on the fast path, of all
			// composed operations (the site counts each fallback once).
			m["txn.fast_commit_frac"] = ratio(float64(s.Commits), float64(s.Commits+s.Fallbacks))
		}
	}
	od := open1.Delta(open0)
	m["semtx.retries_per_txn"] = ratio(float64(od.SemRetries), float64(od.Txns))
	m["semtx.commit_self_frac"] = selfFrac(tracers, lsSemtx)
	m["semtx.run_us_p50"] = hists[lsSemtx].quantileUs(0.5)
	m["semtx.run_us_p99"] = hists[lsSemtx].quantileUs(0.99)
	m["hashtable.contains_us_p50"] = hists[lsContains].quantileUs(0.5)
	m["hashtable.update_us_p50"] = hists[lsUpdate].quantileUs(0.5)
	m["hashtable.resizes"] = float64(res1 - res0)
	m["msqueue.dequeue_us_p50"] = hists[lsDequeue].quantileUs(0.5)
	m["txn.move_us_p50"] = hists[lsMove].quantileUs(0.5)
	m["txn.move_us_p99"] = hists[lsMove].quantileUs(0.99)
	m["txn.moveall_us_p50"] = hists[lsMoveAll].quantileUs(0.5)
	runtimeLayer(m, win)
	m["trace.overhead_frac"] = 1 - win.throughput()/refWin.throughput()
	if err := ledger(m); err != nil {
		return result{}, err
	}
	return finish(cfg, correct, win.ops, win.failed, m)
}

// htmLayer fills the htm counters per operation from two Domain.Stats
// snapshots.
func htmLayer(m metrics, a, b htm.Stats, ops float64) {
	commits := float64(b.Commits - a.Commits)
	conflicts := float64(b.Conflicts - a.Conflicts)
	capacity := float64(b.Capacity - a.Capacity)
	explicit := float64(b.Explicit - a.Explicit)
	m["htm.commits_per_op"] = commits / ops
	m["htm.conflict_aborts_per_op"] = conflicts / ops
	m["htm.alias_aborts_per_op"] = float64(b.FalseConflicts-a.FalseConflicts) / ops
	m["htm.capacity_aborts_per_op"] = capacity / ops
	m["htm.explicit_aborts_per_op"] = explicit / ops
	m["htm.commit_ratio"] = ratio(commits, commits+conflicts+capacity+explicit)
}

// speculateLayer sums every speculation site of a telemetry delta.
func speculateLayer(m metrics, d telemetry.Snapshot, ops float64) {
	var attempts, commits, fallbacks float64
	for _, s := range d.Sites {
		attempts += float64(s.Attempts)
		commits += float64(s.Commits)
		fallbacks += float64(s.Fallbacks)
	}
	m["speculate.attempts_per_op"] = attempts / ops
	m["speculate.fallbacks_per_op"] = fallbacks / ops
	m["speculate.fast_commit_frac"] = ratio(commits, commits+fallbacks)
}
