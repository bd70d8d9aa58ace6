// Package htm provides a software emulation of a best-effort hardware
// transactional memory in the style of Intel's Restricted Transactional
// Memory (RTM), which the paper uses as its execution substrate.
//
// The emulation preserves the RTM *failure model*, which is what Prefix
// Transaction Optimization (PTO) is designed around:
//
//   - a transaction may abort at any point, for any reason;
//   - aborts carry a status (conflict, capacity, explicit) so retry policies
//     can distinguish transient from permanent failure;
//   - code must always provide a non-transactional fallback;
//   - committed transactions are strongly atomic: no concurrent reader,
//     transactional or not, observes a partial commit.
//
// Internally this is a single-version, lazy-versioning STM in the TL2
// style: a global commit clock per Domain plus a fixed array of striped
// ownership records (orecs) — versioned stripe locks hashed by Var
// identity, each padded to its own cache line. Values live in Var[T]
// cells. A transaction snapshots the commit clock at begin; every
// transactional read validates only the stripe of the Var it touches
// (unlocked, version no newer than the snapshot). Transactional writes are
// buffered and applied at commit while holding only the written stripes'
// locks, acquired in ascending stripe order so commits stay deadlock-free.
// Non-transactional writes lock only their own stripe, and
// non-transactional reads validate against their stripe word, so no code
// path can observe a half-applied commit — but, unlike the whole-domain
// sequence lock this package used to carry, writers to one stripe no
// longer abort readers and committers of every other stripe. Conflicts are
// detected per location (modulo stripe aliasing), which is what lets
// disjoint-footprint operations — different hash buckets, distant skiplist
// keys, separate BST subtrees — commit concurrently, the way they do under
// real per-cache-line HTM conflict detection.
//
// Stripe aliasing makes conflict detection conservative: two Vars that
// hash to the same stripe can abort each other without a true data
// conflict, exactly as two addresses sharing a cache set can on real
// hardware. The engine classifies each conflict abort (true vs
// stripe-alias, via the stripe's last-writer record) so telemetry can
// report the false-conflict rate; see AtomicallyClassified.
//
// The one property of real HTM this emulation cannot preserve is progress of
// the combined system: the commit path holds stripe locks, so a preempted
// committer can delay others, whereas real RTM commits in a bounded number of
// hardware steps. The deterministic machine simulator in internal/sim models
// true requester-wins HTM and carries the paper's progress and performance
// claims; this package carries correctness of the PTO code structure under
// real Go concurrency.
package htm

import (
	"cmp"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Status reports how a transaction attempt ended. It mirrors the RTM status
// word delivered to the fallback path of XBEGIN.
type Status int

const (
	// Committed means the transaction ran to completion and its writes are
	// visible atomically.
	Committed Status = iota
	// AbortConflict means a concurrent writer invalidated the transaction's
	// snapshot (the analogue of an RTM data-conflict abort).
	AbortConflict
	// AbortCapacity means the transaction's read or write footprint exceeded
	// the configured capacity (the analogue of an RTM capacity abort).
	AbortCapacity
	// AbortExplicit means the transaction called Abort itself, e.g. because
	// it observed a state in which it would have to help a concurrent
	// operation (§2.4 of the paper).
	AbortExplicit
)

// String returns a short human-readable name for the status.
func (s Status) String() string {
	switch s {
	case Committed:
		return "committed"
	case AbortConflict:
		return "conflict"
	case AbortCapacity:
		return "capacity"
	case AbortExplicit:
		return "explicit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Stats counts transaction outcomes for a Domain. All fields are cumulative.
// FalseConflicts is the subset of Conflicts the engine attributed to stripe
// aliasing rather than a true data conflict (see AtomicallyClassified).
type Stats struct {
	Commits        uint64
	Conflicts      uint64
	FalseConflicts uint64
	Capacity       uint64
	Explicit       uint64
}

// DefaultStripes is the default ownership-record table size. 256 stripes
// keep the whole table at 16KB (one cache line each) while making accidental
// aliasing of a handful of hot Vars unlikely. The count is a per-Domain
// option (NewDomainStripes): fewer stripes model a smaller conflict-detection
// granularity — more aliasing, as on HTM with fewer cache sets — and the
// 4-stripe configuration is the aliasing stress fixture.
const DefaultStripes = 256

// stripe is one ownership record: a versioned lock word guarding every Var
// that hashes to it, padded out to its own cache line so stripe traffic
// does not false-share.
type stripe struct {
	// word is the ownership record proper. Unlocked it packs version<<1
	// (version = the domain commit-clock value of the last write through
	// the stripe); locked it packs ownerVarID<<1 | 1, naming the Var on
	// whose behalf a writer (a committing transaction, a direct
	// store/CAS/Add, or a deciding MultiCAS) holds the stripe. Carrying
	// the owner in the lock word is what lets an aborting reader attribute
	// a busy-stripe conflict exactly.
	word atomic.Uint64
	// lastWriter records the id of the Var most recently written through
	// this stripe, published before the new version while the stripe is
	// still locked. It exists purely for conflict attribution: an aborted
	// reader of Var v that finds lastWriter != v's id was the victim of
	// stripe aliasing, not of a true data conflict.
	lastWriter atomic.Uint64
	_          [48]byte
}

// stripeTable is one generation of a domain's ownership-record table: a
// power-of-two count of stripes plus the derived hash shift and bitmap
// width. A table's shape is immutable after construction, so hot paths read
// it without synchronization; what can change is WHICH table is the
// domain's current generation (ResizeStripes swaps in a new one). active
// counts the transactions pinned to this generation: a transaction
// increments it at begin and validates its whole read set against this
// table, so a retiring table stays write-bumped (see the dual-table writer
// protocol) until active drains to zero — the swap's RCU grace period.
type stripeTable struct {
	shift   uint32 // 64 - log2(len(stripes)): the Fibonacci-hash shift
	words   int    // stripe bitmap size in 64-bit words
	stripes []stripe
	active  atomic.Int64 // transactions pinned to this generation
}

// tables is the domain's live stripe-table generations: cur is the table
// new transactions pin and all writers bump; prev, non-nil only during a
// ResizeStripes grace period, is the migrating-out generation that pinned
// transactions still validate against — writers bump BOTH until it drains.
// Every swap installs a fresh tables value, so pointer equality of the pair
// is a reliable "no swap happened in this window" check (no ABA).
type tables struct {
	cur  *stripeTable
	prev *stripeTable
}

func newStripeTable(n int) *stripeTable {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("htm: stripe count %d is not a power of two", n))
	}
	return &stripeTable{
		shift:   uint32(64 - bits.TrailingZeros(uint(n))),
		words:   (n + 63) / 64,
		stripes: make([]stripe, n),
	}
}

// indexOf hashes a Var id onto a stripe index (Fibonacci hashing; the ids
// are small sequential integers, so multiplicative scrambling is what
// spreads consecutively allocated Vars across the table). For the default
// 256-stripe table the shift is 56, reproducing the historical fixed hash
// bit for bit.
func (t *stripeTable) indexOf(id uint64) uint32 {
	return uint32((id * 0x9E3779B97F4A7C15) >> t.shift)
}

// Domain is an independent transactional memory. Transactions in different
// domains never conflict with each other; a data structure instance typically
// owns one Domain. The zero value is ready to use.
type Domain struct {
	// clock is the TL2-style global commit clock: it only ever advances, by
	// one per writing commit (transactional or direct). A transaction
	// snapshots it at begin; a stripe whose version exceeds the snapshot
	// has been written since the transaction began.
	clock atomic.Uint64

	commits        atomic.Uint64
	conflicts      atomic.Uint64
	falseConflicts atomic.Uint64
	capacity       atomic.Uint64
	explicit       atomic.Uint64

	// readCap and writeCap bound the transactional footprint; zero means the
	// package defaults. They model HTM capacity limits and are stored
	// atomically so they can be retuned while transactions are in flight.
	readCap  atomic.Int64
	writeCap atomic.Int64

	// stripeCfg is the requested stripe count (0 = DefaultStripes); tbls is
	// the live generation pair, built on first use. The indirection keeps
	// the zero Domain ready to use while making the count a per-domain
	// option — and, since the striped-remap work, a per-domain *runtime*
	// knob: ResizeStripes swaps in a new generation under remapMu.
	stripeCfg atomic.Int64
	tbls      atomic.Pointer[tables]
	remapMu   sync.Mutex
	remaps    atomic.Uint64
}

// Default capacity limits, chosen to approximate an L1-bounded write set and
// an L2-tracked read set as on Haswell RTM.
const (
	DefaultReadCap  = 4096
	DefaultWriteCap = 448
)

// NewDomain returns a Domain with the given footprint limits. Passing zero
// for either limit selects the package default.
func NewDomain(readCap, writeCap int) *Domain {
	d := &Domain{}
	d.SetCapacity(readCap, writeCap)
	return d
}

// NewDomainStripes is NewDomain with an explicit ownership-record stripe
// count: a power of two (panics otherwise), 0 selecting DefaultStripes.
// Fewer stripes coarsen conflict detection — more false (aliasing)
// conflicts, same correctness — which is the knob the aliasing stress tests
// and stripe-tuning experiments turn. The table is built here, before the
// domain is shared.
func NewDomainStripes(readCap, writeCap, stripes int) *Domain {
	d := NewDomain(readCap, writeCap)
	if stripes != 0 {
		d.stripeCfg.Store(int64(stripes))
	}
	d.table()
	return d
}

// Stripes returns the domain's current ownership-record stripe count.
func (d *Domain) Stripes() int { return len(d.table().stripes) }

// Remaps returns how many stripe-table generation swaps (ResizeStripes)
// the domain has completed.
func (d *Domain) Remaps() uint64 { return d.remaps.Load() }

// pair returns the domain's live table generations, building the first one
// on first use.
func (d *Domain) pair() *tables {
	if p := d.tbls.Load(); p != nil {
		return p
	}
	n := int(d.stripeCfg.Load())
	if n == 0 {
		n = DefaultStripes
	}
	p := &tables{cur: newStripeTable(n)}
	if d.tbls.CompareAndSwap(nil, p) {
		return p
	}
	return d.tbls.Load()
}

// table returns the domain's current stripe table.
func (d *Domain) table() *stripeTable { return d.pair().cur }

// pin marks one transaction as validating against the current table
// generation and returns that table. The increment-then-revalidate loop
// closes the race with a concurrent swap: an increment that lands after the
// controller's grace check would pin a retired table, so the pin only
// sticks if the table is still current AFTER the increment is visible —
// atomic RMWs are totally ordered, so a pin the revalidation confirms is
// guaranteed visible to the controller's subsequent grace-period scan. The
// caller must balance with active.Add(-1) when the attempt ends.
func (d *Domain) pin() *stripeTable {
	for {
		t := d.pair().cur
		t.active.Add(1)
		if d.tbls.Load().cur == t {
			return t
		}
		t.active.Add(-1)
	}
}

// remapOwner is the sentinel lock owner ResizeStripes holds every old-
// generation stripe under while installing the new table. It is outside the
// Var id space, so conflicts observed against it classify as stripe-alias
// (false) conflicts: a migration abort is engine-induced, not a data race.
const remapOwner = uint64(1) << 62

// ResizeStripes swaps the domain's ownership-record table for a fresh one
// with n stripes (a power of two; panics otherwise), rehashing every Var's
// stripe assignment, and reports whether a swap happened (false when n is
// already the current count). It is the actuation point of the
// contention-adaptive stripe controller (internal/tune): growing the table
// dilutes stripe aliasing without touching any Var.
//
// Safety protocol (the RCU-style swap):
//
//  1. Quiesce writers: acquire every old-generation stripe, in ascending
//     order, under the remapOwner sentinel. Commits that race this abort
//     (they never spin); direct writers and MultiCAS decisions spin
//     briefly. Holding the whole table guarantees no writer is mid-
//     publication with only-old-generation locks when the new table
//     becomes visible.
//  2. Install {cur: new, prev: old} and release the old stripes at their
//     pre-lock words. From here every writer bumps BOTH generations
//     (commit, direct store/CAS/Add, MultiCAS decision all re-check the
//     pair after locking), so transactions pinned to either table still
//     observe every conflict.
//  3. Grace period: wait until no transaction is pinned to the old table
//     (attempts are short; pin lifetime is one attempt). Then install
//     {cur: new} and retire the old generation — writers go back to
//     single-table bumps.
//
// New-generation stripes start at version 0, which is safe under the
// shared commit clock: any write a post-swap transaction must observe
// commits after the swap install and therefore bumps the new table past
// that transaction's begin snapshot. Concurrent ResizeStripes calls
// serialize; the call blocks for one grace period (microseconds under
// normal load).
func (d *Domain) ResizeStripes(n int) bool {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("htm: stripe count %d is not a power of two", n))
	}
	d.remapMu.Lock()
	defer d.remapMu.Unlock()
	old := d.pair().cur // prev is always nil between swaps (remapMu)
	if len(old.stripes) == n {
		return false
	}
	nt := newStripeTable(n)
	prevWords := make([]uint64, len(old.stripes))
	for i := range old.stripes {
		prevWords[i] = acquire(&old.stripes[i], remapOwner)
	}
	d.tbls.Store(&tables{cur: nt, prev: old})
	for i := range old.stripes {
		old.stripes[i].word.Store(prevWords[i])
	}
	for old.active.Load() != 0 {
		runtime.Gosched()
	}
	d.tbls.Store(&tables{cur: nt})
	d.remaps.Add(1)
	return true
}

// SetCapacity changes the domain's footprint limits. Zero selects the
// package default; a negative value selects a zero-capacity domain in which
// every transactional read or write aborts with AbortCapacity, forcing all
// operations (including composed transactions) down their fallback paths —
// the software analogue of running on a machine without HTM. It is intended
// for tests and tuning experiments — e.g. a read capacity of 1 makes every
// multi-read transaction abort with AbortCapacity. It is safe to call
// concurrently with transactions: each attempt reads the limits once at
// start, so in-flight attempts finish under whichever limits they began
// with.
func (d *Domain) SetCapacity(readCap, writeCap int) {
	d.readCap.Store(int64(readCap))
	d.writeCap.Store(int64(writeCap))
}

// Stats returns a snapshot of the domain's cumulative transaction outcomes.
func (d *Domain) Stats() Stats {
	return Stats{
		Commits:        d.commits.Load(),
		Conflicts:      d.conflicts.Load(),
		FalseConflicts: d.falseConflicts.Load(),
		Capacity:       d.capacity.Load(),
		Explicit:       d.explicit.Load(),
	}
}

func (d *Domain) caps() (int, int) {
	r, w := int(d.readCap.Load()), int(d.writeCap.Load())
	switch {
	case r == 0:
		r = DefaultReadCap
	case r < 0:
		r = 0
	}
	switch {
	case w == 0:
		w = DefaultWriteCap
	case w < 0:
		w = 0
	}
	return r, w
}

// acquire spins until it holds s's lock on behalf of Var owner, returning
// the stripe's pre-lock word (even: version<<1). Only single-stripe writers
// and the MultiCAS decision use it; transactional commits never spin on a
// stripe (they abort instead), which is what keeps the spin here short.
func acquire(s *stripe, owner uint64) uint64 {
	for {
		w := s.word.Load()
		if w&1 == 0 && s.word.CompareAndSwap(w, owner<<1|1) {
			return w
		}
		runtime.Gosched()
	}
}

// aliasConflict classifies a conflict that Var varID's owner observed as
// stripe word (the word that failed validation): true when the interfering
// writer was a *different* Var, i.e. the abort is due to stripe aliasing
// rather than a write to the data the transaction actually touched. A
// locked word names its owner directly; an advanced version is attributed
// to the stripe's last-writer record, which every writer publishes before
// the version it installs. The split can still misattribute when a true
// and an aliased writer pass through the stripe back to back — attribution
// goes to the latest — which is the same precision real HTM offers
// profilers: per-line, not per-address.
func aliasConflict(word uint64, s *stripe, varID uint64) bool {
	if word&1 != 0 {
		owner := word >> 1
		return owner != 0 && owner != varID
	}
	w := s.lastWriter.Load()
	return w != 0 && w != varID
}

// cell is the immutable box a Var points at. desc == nil means the Var holds
// the plain value val; otherwise the Var is claimed by an in-flight MultiCAS
// and val is the (already validated) old value, which remains the logical
// value until the operation decides. Mirrors the box of internal/mcas.
type cell[T comparable] struct {
	val  T
	desc *MultiDesc
}

// varIDs issues Var identities: the global order MultiCAS claims follow and
// the input of the stripe hash.
var varIDs atomic.Uint64

// Var is a transactional cell holding a value of comparable type T. Vars must
// be created by Init (or NewVar) so they are bound to a Domain; the zero
// Var is not usable. All access goes through Load, Store, CAS, and Add, which
// take an optional transaction: a nil *Tx selects the direct, non-speculative
// path used by fallback code. Vars additionally participate in MultiCAS, the
// lock-free multi-Var publication primitive of the composition layer.
type Var[T comparable] struct {
	d  *Domain
	id uint64
	p  atomic.Pointer[cell[T]]
}

// Init binds an embedded Var to domain d and sets its initial value. It must
// be called exactly once, before any concurrent access; it is intended for
// initializing Var fields of freshly allocated nodes. Init assigns the Var
// its identity — its MultiCAS ordering id, from which each table generation
// hashes the Var's conflict-detection stripe. The stripe is deliberately
// NOT cached on the Var: ResizeStripes swaps the table at runtime, so every
// access resolves id → stripe against the generation it is validating in
// (one multiply and shift).
func (v *Var[T]) Init(d *Domain, init T) {
	v.d = d
	v.id = varIDs.Add(1)
	d.pair() // force the first table generation before the Var is shared
	v.p.Store(&cell[T]{val: init})
}

// NewVar allocates a Var bound to domain d holding init.
func NewVar[T comparable](d *Domain, init T) *Var[T] {
	v := new(Var[T])
	v.Init(d, init)
	return v
}

// Domain returns the domain the Var is bound to.
func (v *Var[T]) Domain() *Domain { return v.d }

// abortSignal is the panic payload used to unwind to Atomically. Each Tx
// carries its own and panics with a pointer to it, so an abort allocates
// nothing and the recover can tell its own signal from anyone else's.
type abortSignal struct {
	status Status
	// alias marks a conflict abort attributed to stripe aliasing.
	alias bool
}

// stripeRec is one touched stripe of a transaction: the stripe (pointer and
// index), the id of the (first) Var the transaction touched there — kept for
// conflict attribution — and, on the commit path, the stripe's pre-lock word
// for validation and rollback.
type stripeRec struct {
	s     *stripe
	idx   uint32
	varID uint64
	prev  uint64
}

// Tx is an in-flight transaction. A Tx is only valid inside the function
// passed to Atomically and must not be retained, shared between goroutines,
// or used after that function returns: the engine recycles it for later
// attempts.
//
// Every slice and bitmap below is reused across attempts (truncated, never
// reallocated once large enough), and every bitmap is all-zero between uses:
// whoever sets bits clears exactly those bits again, so resetting costs the
// work the attempt did, not the size of the stripe table.
type Tx struct {
	d  *Domain
	t  *stripeTable // the generation pinned at begin; all reads validate here
	rv uint64       // commit-clock snapshot taken at begin (the TL2 read version)

	reads    int
	readSet  []uint64    // stripes with at least one transactional read
	readRecs []stripeRec // one record per read stripe, first-touch order

	// writeLog is the redo log: insertion-ordered so commit write-back
	// follows program order of first-writes. Read-own-writes scans it by Var
	// id while it is short; writeIdx indexes it once it outgrows
	// smallWriteSet.
	writeLog []writeEntry
	writeIdx map[uint64]int

	// Commit scratch: lock records for every live table generation, the
	// per-generation stripe dedup bitmap, and the pinned generation's
	// locked-stripe bitmap.
	recs []stripeRec
	seen []uint64
	wset []uint64

	readCap  int
	writeCap int
	sig      abortSignal // the payload this attempt's aborts panic with
	// alias records whether the abort that ended this attempt (if any) was
	// a conflict attributed to stripe aliasing.
	alias bool

	// helpBudget and helped implement the three-path template's middle
	// tier: a transaction run with a positive budget (AtomicallyHelping)
	// drives up to helpBudget undecided MultiCAS descriptors claiming its
	// written cells to decision at commit — instead of killing them or
	// aborting on sight — then aborts explicitly. The fast path runs with
	// budget 0 and is untouched. deferPending is the budget-0 variant for
	// the fast level of a three-path site (AtomicallyDeferring): an
	// undecided descriptor on the write set aborts the attempt instead of
	// being killed, deferring the encounter to the helping tier below.
	helpBudget   int
	helped       int
	deferPending bool
}

// smallWriteSet is the write-log length up to which read-own-writes scans
// the log linearly; past it the log is indexed by a map. Most transactions
// write a handful of Vars, where a scan beats hashing.
const smallWriteSet = 16

// writeVar is a written Var as the redo log sees it, independent of its
// value type.
type writeVar interface {
	// install publishes c, the entry's *cell, with the Var's stripe lock held.
	install(c any)
	// pending returns the undecided MultiCAS descriptor claiming the Var's
	// cell, if any — for the commit-time helping pass of budgeted
	// (middle-level) and deferring transactions.
	pending() *MultiDesc
}

// writeEntry is one redo-log entry. c is the *cell[T] commit installs: Store
// allocates it on the first write and rewrites its value in place on later
// writes in the same attempt, which is safe because no one else sees the
// cell before commit publishes it.
type writeEntry struct {
	v     writeVar
	varID uint64
	c     any
}

// txPool recycles Tx values, with their sets, across attempts.
var txPool = sync.Pool{New: func() any { return new(Tx) }}

// bitmap returns b resized to n words, reusing its storage when it is large
// enough. Callers keep the words zero between uses.
func bitmap(b []uint64, n int) []uint64 {
	if cap(b) < n {
		return make([]uint64, n)
	}
	return b[:n]
}

// release returns tx to the pool, dropping every reference to user values,
// Vars and stripe tables so the pool pins none of them.
func (tx *Tx) release() {
	for i := range tx.readRecs {
		idx := tx.readRecs[i].idx
		tx.readSet[idx>>6] &^= 1 << (idx & 63)
	}
	clear(tx.readRecs)
	tx.readRecs = tx.readRecs[:0]
	if len(tx.writeLog) > smallWriteSet {
		clear(tx.writeIdx)
	}
	clear(tx.writeLog)
	tx.writeLog = tx.writeLog[:0]
	clear(tx.recs)
	tx.recs = tx.recs[:0]
	tx.d, tx.t = nil, nil
	txPool.Put(tx)
}

// Abort aborts the running transaction with AbortExplicit (the analogue of
// XABORT). code names the abort site for readers of the calling code; the
// engine reports only the status. It does not return.
func (tx *Tx) Abort(code int) {
	tx.abort(AbortExplicit, false)
}

// abort ends the attempt with status st by unwinding to the enclosing
// atomically. It does not return.
func (tx *Tx) abort(st Status, alias bool) {
	tx.sig = abortSignal{status: st, alias: alias}
	panic(&tx.sig)
}

// conflict aborts the transaction with AbortConflict, classifying the
// abort against the stripe word that failed validation. It does not return.
func (tx *Tx) conflict(word uint64, s *stripe, varID uint64) {
	tx.abort(AbortConflict, aliasConflict(word, s, varID))
}

// recordRead adds the stripe to the transaction's read set (first touch
// only; later reads through the same stripe are already covered).
func (tx *Tx) recordRead(s *stripe, idx uint32, varID uint64) {
	w, b := idx>>6, uint64(1)<<(idx&63)
	if tx.readSet[w]&b != 0 {
		return
	}
	tx.readSet[w] |= b
	tx.readRecs = append(tx.readRecs, stripeRec{s: s, idx: idx, varID: varID})
}

// written returns the write-log position of Var id, or -1.
func (tx *Tx) written(id uint64) int {
	if len(tx.writeLog) > smallWriteSet {
		if i, ok := tx.writeIdx[id]; ok {
			return i
		}
		return -1
	}
	for i := range tx.writeLog {
		if tx.writeLog[i].varID == id {
			return i
		}
	}
	return -1
}

// logWrite appends e to the write log, indexing the log once it outgrows
// smallWriteSet.
func (tx *Tx) logWrite(e writeEntry) {
	tx.writeLog = append(tx.writeLog, e)
	switch n := len(tx.writeLog); {
	case n == smallWriteSet+1:
		if tx.writeIdx == nil {
			tx.writeIdx = make(map[uint64]int)
		}
		for i := range tx.writeLog {
			tx.writeIdx[tx.writeLog[i].varID] = i
		}
	case n > smallWriteSet+1:
		tx.writeIdx[e.varID] = n - 1
	}
}

// Atomically runs f as a single transaction attempt against domain d and
// reports how it ended. It makes exactly one attempt: retry policy is the
// caller's responsibility (see internal/core), mirroring the paper's model in
// which TxBegin may "return more than once" and the program decides whether
// to retry or run the fallback.
//
// If f returns normally the transaction commits (Committed). If f calls
// Tx.Abort, or a conflict or capacity condition arises, the attempt's
// buffered writes are discarded and the corresponding abort status is
// returned. Panics not originating from the transaction machinery propagate
// to the caller after the attempt is rolled back.
//
// Nesting is not supported: f must not call Atomically.
func (d *Domain) Atomically(f func(tx *Tx)) Status {
	st, _ := d.AtomicallyClassified(f)
	return st
}

// AtomicallyClassified is Atomically plus conflict attribution: when the
// attempt ends in AbortConflict, the second result reports whether the
// engine classified the conflict as a stripe-alias (false) conflict — an
// abort caused by an unrelated Var sharing the touched Var's ownership
// record — rather than a true data conflict. It is always false for the
// other statuses. Retry policies treat both kinds the same (both are
// transient); the split exists for telemetry, so tuning can distinguish
// contention that more stripes would cure from contention that is real.
func (d *Domain) AtomicallyClassified(f func(tx *Tx)) (Status, bool) {
	st, alias, _ := d.AtomicallyHelping(0, f)
	return st, alias
}

// AtomicallyHelping is AtomicallyClassified with a helping budget: the
// three-path template's middle tier. A transaction run with helpBudget > 0
// does not treat an undecided MultiCAS descriptor on a written cell as an
// obstacle to kill (storeLocked's rule) — at commit, before taking any
// stripe lock, it drives up to helpBudget such descriptors to decision via
// their own lock-free protocol, then locks, validates, and publishes as
// usual. Budget exhausted mid-pass aborts the attempt explicitly
// (AbortExplicit), leaving the remaining descriptors unharmed. The helping
// is real progress — the decided descriptors stay decided — so retry
// policies treat the abort as consuming one attempt, not the level. The third
// result reports how many descriptors this attempt helped to decision
// (counted even when the attempt subsequently aborts: decisions are real,
// externally visible progress). helpBudget <= 0 is exactly
// AtomicallyClassified.
func (d *Domain) AtomicallyHelping(helpBudget int, f func(tx *Tx)) (Status, bool, int) {
	return d.atomically(helpBudget, false, f)
}

// AtomicallyDeferring is AtomicallyClassified for the fast level of a
// three-path site: a budget-0 transaction that, at commit, aborts explicitly
// (AbortExplicit) when an undecided MultiCAS descriptor sits on any
// written cell — instead of killing it, the two-path kill-paid-by-commit
// rule. The abort leaves the descriptor alive for the helping middle tier
// below (speculate.Core.DefersAt derives when this variant applies).
// Descriptors that land on written cells after the commit-time check are
// still killed under the stripe lock, the unconditional backstop.
func (d *Domain) AtomicallyDeferring(f func(tx *Tx)) (Status, bool) {
	st, alias, _ := d.atomically(0, true, f)
	return st, alias
}

func (d *Domain) atomically(helpBudget int, deferPending bool, f func(tx *Tx)) (Status, bool, int) {
	rc, wc := d.caps()
	// Pin the table generation first, THEN snapshot the clock: a writer
	// that finished before the current generation was installed has already
	// bumped the clock, so a post-pin snapshot can never miss it.
	t := d.pin()
	tx := txPool.Get().(*Tx)
	tx.d, tx.t, tx.rv = d, t, d.clock.Load()
	tx.reads, tx.readCap, tx.writeCap = 0, rc, wc
	tx.readSet = bitmap(tx.readSet, t.words)
	tx.alias = false
	tx.helpBudget, tx.helped, tx.deferPending = helpBudget, 0, deferPending
	status := d.attempt(tx, f)
	t.active.Add(-1)
	switch status {
	case Committed:
		d.commits.Add(1)
	case AbortConflict:
		d.conflicts.Add(1)
		if tx.alias {
			d.falseConflicts.Add(1)
		}
	case AbortCapacity:
		d.capacity.Add(1)
	case AbortExplicit:
		d.explicit.Add(1)
	}
	alias, helped := status == AbortConflict && tx.alias, tx.helped
	tx.release()
	return status, alias, helped
}

// attempt runs f and commits. It unwinds f's aborts into a status; any other
// panic, or a runtime.Goexit out of f, releases the attempt's table pin and
// propagates — the Tx is then dropped rather than recycled, since f's
// unwinding code may still hold it.
func (d *Domain) attempt(tx *Tx, f func(tx *Tx)) (status Status) {
	returned := false
	defer func() {
		if returned {
			return
		}
		r := recover()
		if sig, ok := r.(*abortSignal); ok && sig == &tx.sig {
			status, tx.alias = sig.status, sig.alias
			return
		}
		tx.t.active.Add(-1)
		if r != nil {
			panic(r)
		}
	}()
	f(tx)
	status = tx.commit()
	returned = true
	return status
}

// commit publishes the write log with the TL2 protocol: lock the written
// stripes in ascending stripe order (aborting, never spinning, on a busy
// stripe — deadlock freedom against other committers and MultiCAS
// decisions), draw a new commit timestamp, validate the read set, apply the
// log, and release the stripes at the new version. Read-only transactions
// commit without any locking or validation at all — every read was already
// validated against the begin snapshot, so the transaction serializes
// there — mirroring the cheapness of read-only HTM commits.
func (tx *Tx) commit() Status {
	if len(tx.writeLog) == 0 {
		return Committed
	}
	d := tx.d

	// Helping pass (middle path): a budgeted transaction drives undecided
	// MultiCAS descriptors claiming its written cells to decision before
	// taking any stripe lock — a decision acquires its own stripes with a
	// spinning protocol, so helping while holding locks could deadlock
	// against it. Descriptors that land on our cells after this pass are
	// still killed by storeLocked under the stripe lock, the historical
	// kill-paid-by-commit backstop; the pass just makes the common
	// encounter cooperative instead of destructive. Budget 0 skips the
	// pass entirely on the kill-semantics fast path; a deferring attempt
	// (AtomicallyDeferring, budget 0) runs the pass only to detect a
	// pending descriptor and abort without harming it.
	if tx.helpBudget > 0 || tx.deferPending {
		for i := range tx.writeLog {
			v := tx.writeLog[i].v
			for {
				m := v.pending()
				if m == nil {
					break
				}
				if tx.helped >= tx.helpBudget {
					return AbortExplicit
				}
				tx.helped++
				m.help()
			}
		}
	}

	// Deduplicate the write log onto stripes — in EVERY live table
	// generation — and lock prev-generation stripes first, then current,
	// each group ascending (the one global order every spinning acquirer
	// follows). During a ResizeStripes migration two generations are live
	// and transactions pinned to either validate against their own, so the
	// commit must bump both. The pair is re-checked after locking: a swap
	// between reading it and locking would leave a generation unbumped.
	var recs, pinRecs []stripeRec
	for {
		p := d.tbls.Load()
		recs = tx.recs[:0]
		if p.prev != nil {
			recs = tx.appendWriteRecs(recs, p.prev)
		}
		split := len(recs)
		recs = tx.appendWriteRecs(recs, p.cur)
		tx.recs = recs

		// Lock phase. A stripe held by another writer aborts the commit,
		// classified by the owner in the very word that showed it held; on
		// failure restore every stripe already taken. A word that merely
		// moved on between load and CAS is re-read: classifying it later
		// would consult a last-writer record that an aborted locker never
		// updated.
		for i := range recs {
			s, owner := recs[i].s, recs[i].varID
			w := s.word.Load()
			for w&1 == 0 && !s.word.CompareAndSwap(w, owner<<1|1) {
				w = s.word.Load()
			}
			if w&1 != 0 {
				tx.alias = aliasConflict(w, s, owner)
				tx.unlock(recs[:i], 0)
				return AbortConflict
			}
			recs[i].prev = w
		}
		if d.tbls.Load() == p {
			// pinRecs is the locked group in the generation the read set
			// validates against (the pinned table is always one of the
			// pair: the grace period cannot end while we are pinned).
			if tx.t == p.cur {
				pinRecs = recs[split:]
			} else {
				pinRecs = recs[:split]
			}
			break
		}
		tx.unlock(recs, 0) // swap raced the lock phase; relock both tables
	}
	wv := d.clock.Add(1)
	// Validate the read set unless no one committed since our snapshot (in
	// which case every read is trivially still current).
	if wv != tx.rv+1 && !tx.validate(pinRecs) {
		tx.unlock(recs, 0)
		return AbortConflict
	}

	// Apply the redo log and release the stripes at the new version.
	for i := range tx.writeLog {
		e := &tx.writeLog[i]
		e.v.install(e.c)
	}
	tx.unlock(recs, wv<<1)
	return Committed
}

// validate checks every read stripe against the begin snapshot, with the
// pinned generation's write stripes (pinRecs) locked by this commit, and
// records the conflict's attribution when it fails.
func (tx *Tx) validate(pinRecs []stripeRec) bool {
	wset := bitmap(tx.wset, tx.t.words)
	tx.wset = wset
	for i := range pinRecs {
		wset[pinRecs[i].idx>>6] |= 1 << (pinRecs[i].idx & 63)
	}
	defer func() {
		for i := range pinRecs {
			wset[pinRecs[i].idx>>6] &^= 1 << (pinRecs[i].idx & 63)
		}
	}()
	for _, r := range tx.readRecs {
		if wset[r.idx>>6]&(1<<(r.idx&63)) != 0 {
			// We hold this stripe's lock; judge it by its pre-lock word.
			if prev := prevOf(pinRecs, r.idx); prev>>1 > tx.rv {
				tx.alias = aliasConflict(prev, r.s, r.varID)
				return false
			}
			continue
		}
		if w := r.s.word.Load(); w&1 != 0 || w>>1 > tx.rv {
			tx.alias = aliasConflict(w, r.s, r.varID)
			return false
		}
	}
	return true
}

// unlock releases the given locked stripe records: to word (the new
// version) when non-zero — publishing each stripe's last-writer record
// first, while still holding the lock — or back to each stripe's pre-lock
// word on abort, leaving the attribution records untouched (an aborted
// commit wrote nothing).
func (tx *Tx) unlock(recs []stripeRec, word uint64) {
	for i := range recs {
		s := recs[i].s
		if word == 0 {
			s.word.Store(recs[i].prev)
			continue
		}
		s.lastWriter.Store(recs[i].varID)
		s.word.Store(word)
	}
}

// prevOf returns the pre-lock word recorded for stripe idx in the sorted
// lock records.
func prevOf(recs []stripeRec, idx uint32) uint64 {
	i, _ := slices.BinarySearchFunc(recs, idx, func(r stripeRec, idx uint32) int { return cmp.Compare(r.idx, idx) })
	return recs[i].prev
}

// appendWriteRecs appends one record per distinct stripe the write log
// touches in table t, sorted ascending within the appended group.
func (tx *Tx) appendWriteRecs(recs []stripeRec, t *stripeTable) []stripeRec {
	base := len(recs)
	seen := bitmap(tx.seen, t.words)
	tx.seen = seen
	for i := range tx.writeLog {
		id := tx.writeLog[i].varID
		idx := t.indexOf(id)
		w, b := idx>>6, uint64(1)<<(idx&63)
		if seen[w]&b != 0 {
			continue
		}
		seen[w] |= b
		recs = append(recs, stripeRec{s: &t.stripes[idx], idx: idx, varID: id})
	}
	grp := recs[base:]
	for i := range grp {
		seen[grp[i].idx>>6] = 0 // every set bit is one of grp's stripes
	}
	slices.SortFunc(grp, func(a, b stripeRec) int { return cmp.Compare(a.idx, b.idx) })
	return recs
}

// directLock is the stripe set a single-Var direct writer (Store, CAS, Add)
// holds: the Var's stripe in the current generation and, during a
// migration, in the retiring one too — prev-generation first, matching the
// commit path's global lock order. lockVar re-checks the generation pair
// after acquiring, so a writer never publishes with a generation unlocked.
type directLock struct {
	curS, prevS *stripe // prevS nil outside a migration window
	curW, prevW uint64  // pre-lock words
}

func (d *Domain) lockVar(id uint64) directLock {
	for {
		p := d.pair()
		var dl directLock
		if p.prev != nil {
			dl.prevS = &p.prev.stripes[p.prev.indexOf(id)]
			dl.prevW = acquire(dl.prevS, id)
		}
		dl.curS = &p.cur.stripes[p.cur.indexOf(id)]
		dl.curW = acquire(dl.curS, id)
		if d.tbls.Load() == p {
			return dl
		}
		dl.curS.word.Store(dl.curW)
		if dl.prevS != nil {
			dl.prevS.word.Store(dl.prevW)
		}
	}
}

// publish releases the held stripes at version wv, recording id as each
// stripe's last writer first (the attribution order every writer follows).
func (dl *directLock) publish(id, wv uint64) {
	if dl.prevS != nil {
		dl.prevS.lastWriter.Store(id)
		dl.prevS.word.Store(wv << 1)
	}
	dl.curS.lastWriter.Store(id)
	dl.curS.word.Store(wv << 1)
}

// restore releases the held stripes back to their pre-lock words (the
// logical value did not change; overlapping readers have nothing to see).
func (dl *directLock) restore() {
	dl.curS.word.Store(dl.curW)
	if dl.prevS != nil {
		dl.prevS.word.Store(dl.prevW)
	}
}

// Load reads v. With a non-nil tx it is a transactional read: it returns the
// transaction's own pending write if any, validates v's stripe against the
// begin snapshot (aborting if the stripe is locked or has been written since
// the transaction began), and counts against the read capacity. With
// tx == nil it is a direct read that never observes a partially applied
// commit (it retries across the stripe's writer windows).
func Load[T comparable](tx *Tx, v *Var[T]) T {
	if tx != nil {
		if i := tx.written(v.id); i >= 0 {
			return tx.writeLog[i].c.(*cell[T]).val
		}
		tx.reads++
		if tx.reads > tx.readCap {
			tx.abort(AbortCapacity, false)
		}
		// Resolve the stripe in the PINNED generation: writers bump it for
		// as long as we hold the pin, swap or no swap.
		idx := tx.t.indexOf(v.id)
		s := &tx.t.stripes[idx]
		pre := s.word.Load()
		if pre&1 != 0 || pre>>1 > tx.rv {
			tx.conflict(pre, s, v.id)
		}
		x := loadResolved(v)
		if w := s.word.Load(); w != pre {
			tx.conflict(w, s, v.id)
		}
		tx.recordRead(s, idx, v.id)
		return x
	}
	d := v.d
	for {
		// Re-resolve the stripe each try: a table swap retires the old
		// generation's stripes (writers stop bumping them), so the window
		// is only trusted if the generation pair did not change across it.
		p := d.pair()
		s := &p.cur.stripes[p.cur.indexOf(v.id)]
		pre := s.word.Load()
		if pre&1 != 0 {
			runtime.Gosched()
			continue
		}
		x := loadResolved(v)
		if s.word.Load() == pre && d.tbls.Load() == p {
			return x
		}
	}
}

// loadResolved reads v's cell, finishing the release phase of any completed
// MultiCAS it encounters. An undecided or failed descriptor is transparent:
// the claimed cell still carries the logical (old) value, and if the
// operation later succeeds its decision bumps the stripes of its write
// legs, which the caller's stripe validation catches.
func loadResolved[T comparable](v *Var[T]) T {
	for {
		c := v.p.Load()
		if c.desc != nil && c.desc.status.Load() == mwSucceeded {
			c.desc.releaseAll()
			continue
		}
		return c.val
	}
}

// storeLocked installs nc, a fresh descriptor-free cell, as v's cell. It
// must be called with v's stripe lock held: an undecided MultiCAS descriptor
// found on the cell is killed (its decision must acquire this stripe too, so
// the status CAS cannot race with a commit), and a decided one — whose
// stripe bump necessarily preceded our lock acquisition — is released before
// we overwrite.
func storeLocked[T comparable](v *Var[T], nc *cell[T]) {
	for {
		c := v.p.Load()
		if c.desc != nil {
			c.desc.status.CompareAndSwap(mwUndecided, mwFailed)
			c.desc.releaseAll()
			continue
		}
		if v.p.CompareAndSwap(c, nc) {
			return
		}
	}
}

// install implements writeVar: commit's write-back of a logged cell.
func (v *Var[T]) install(c any) { storeLocked(v, c.(*cell[T])) }

// pending implements writeVar.
func (v *Var[T]) pending() *MultiDesc {
	if c := v.p.Load(); c.desc != nil && c.desc.status.Load() == mwUndecided {
		return c.desc
	}
	return nil
}

// Store writes x to v. With a non-nil tx the write is buffered and becomes
// visible atomically at commit; with tx == nil it is applied immediately
// under v's stripe lock.
func Store[T comparable](tx *Tx, v *Var[T], x T) {
	if tx != nil {
		if i := tx.written(v.id); i >= 0 {
			tx.writeLog[i].c.(*cell[T]).val = x
			return
		}
		if len(tx.writeLog) >= tx.writeCap {
			tx.abort(AbortCapacity, false)
		}
		tx.logWrite(writeEntry{v: v, varID: v.id, c: &cell[T]{val: x}})
		return
	}
	d := v.d
	dl := d.lockVar(v.id)
	storeLocked(v, &cell[T]{val: x})
	dl.publish(v.id, d.clock.Add(1))
}

// CAS atomically compares v against old and, if equal, replaces it with new,
// reporting whether the swap happened. Inside a transaction this degenerates
// to a load, a comparison, and a buffered store — exactly the CAS-to-branch
// strength reduction of §2.3 — at no extra synchronization cost. Outside a
// transaction it is a linearizable compare-and-swap. A failed direct CAS
// does not advance the stripe version: the logical value did not change, so
// overlapping transactions have nothing to observe.
//
// Interplay with MultiCAS descriptors refines the kill-paid-by-commit rule:
// a direct CAS that finds an undecided descriptor on its cell kills it only
// when the CAS is itself going to succeed — the cell's logical value matches
// old, so the swap proceeds and its commit pays for the kill. When the
// logical value already disagrees, the CAS fails WITHOUT killing: it aborts
// its own operation and defers to the in-flight descriptor instead of
// spinning on (or destroying) it. Eager descriptor-based fallbacks — the
// Mound's DCAS — lean on this: their retry loop re-reads, helps the
// descriptor to completion, and tries again, and no unpaid kill ever
// degrades a concurrent composed operation's progress.
func CAS[T comparable](tx *Tx, v *Var[T], old, new T) bool {
	if tx != nil {
		if Load(tx, v) != old {
			return false
		}
		Store(tx, v, new)
		return true
	}
	d := v.d
	dl := d.lockVar(v.id)
	ok := false
	for {
		c := v.p.Load()
		if c.desc != nil {
			if c.desc.status.Load() != mwUndecided {
				c.desc.releaseAll()
				continue
			}
			if c.val != old {
				// Undecided claim and the logical value already disagrees:
				// fail without killing (abort-and-defer). The descriptor's
				// outcome cannot change our answer — its decision needs this
				// stripe, which we hold — and a kill here would be paid for
				// by nothing.
				break
			}
			c.desc.status.CompareAndSwap(mwUndecided, mwFailed)
			c.desc.releaseAll()
			continue
		}
		if c.val != old {
			break
		}
		if v.p.CompareAndSwap(c, &cell[T]{val: new}) {
			ok = true
			break
		}
	}
	if ok {
		dl.publish(v.id, d.clock.Add(1))
	} else {
		dl.restore()
	}
	return ok
}

// Add atomically adds delta to an integer Var and returns the new value.
func Add(tx *Tx, v *Var[uint64], delta uint64) uint64 {
	if tx != nil {
		x := Load(tx, v) + delta
		Store(tx, v, x)
		return x
	}
	d := v.d
	dl := d.lockVar(v.id)
	var x uint64
	for {
		c := v.p.Load()
		if c.desc != nil {
			c.desc.status.CompareAndSwap(mwUndecided, mwFailed)
			c.desc.releaseAll()
			continue
		}
		x = c.val + delta
		if v.p.CompareAndSwap(c, &cell[uint64]{val: x}) {
			break
		}
	}
	dl.publish(v.id, d.clock.Add(1))
	return x
}
