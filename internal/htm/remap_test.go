package htm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestResizeStripesBasic pins the swap API: the count changes, values
// survive rehashing (values never move — only their conflict-detection
// stripes do), the swap counter advances, and a no-op resize reports false.
func TestResizeStripesBasic(t *testing.T) {
	d := NewDomainStripes(0, 0, 64)
	vars := make([]*Var[int], 128)
	for i := range vars {
		vars[i] = NewVar(d, i)
	}
	if !d.ResizeStripes(1024) {
		t.Fatal("ResizeStripes(1024) reported no swap")
	}
	if got := d.Stripes(); got != 1024 {
		t.Fatalf("Stripes() = %d after resize, want 1024", got)
	}
	if got := d.Remaps(); got != 1 {
		t.Fatalf("Remaps() = %d, want 1", got)
	}
	if d.ResizeStripes(1024) {
		t.Fatal("same-size resize reported a swap")
	}
	for i, v := range vars {
		if got := Load(nil, v); got != i {
			t.Fatalf("vars[%d] = %d after resize, want %d", i, got, i)
		}
	}
	// Transactions and direct writers keep working against the new table.
	if st := d.Atomically(func(tx *Tx) {
		for _, v := range vars[:8] {
			Store(tx, v, Load(tx, v)+1000)
		}
	}); st != Committed {
		t.Fatalf("post-resize tx status = %v", st)
	}
	if got := Load(nil, vars[0]); got != 1000 {
		t.Fatalf("vars[0] = %d after post-resize tx, want 1000", got)
	}
	// Shrinking back works too (the controller may step down after calm).
	if !d.ResizeStripes(64) {
		t.Fatal("shrink reported no swap")
	}
	if got := d.Remaps(); got != 2 {
		t.Fatalf("Remaps() = %d, want 2", got)
	}
}

func TestResizeStripesPanicsOnBadCount(t *testing.T) {
	d := NewDomain(0, 0)
	for _, n := range []int{0, -4, 3, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ResizeStripes(%d) did not panic", n)
				}
			}()
			d.ResizeStripes(n)
		}()
	}
}

// TestPinnedTxSurvivesResize is the deterministic grace-period check: a
// transaction pinned to the old generation stays valid across the swap
// (disjoint writes through the dual-table window do not doom it), and its
// commit — which must lock stripes in BOTH generations — succeeds.
func TestPinnedTxSurvivesResize(t *testing.T) {
	d := NewDomainStripes(0, 0, 256)
	a := NewVar(d, 1)
	b := disjointVar(t, d, a)
	swapped := make(chan struct{})
	st := d.Atomically(func(tx *Tx) {
		if Load(tx, a) != 1 {
			t.Error("wrong initial read")
		}
		// The resize blocks in its grace period until this transaction
		// finishes, so run it in the background and wait only for the
		// install (visible as the new stripe count).
		go func() {
			defer close(swapped)
			d.ResizeStripes(1024)
		}()
		for d.Stripes() != 1024 {
			runtime.Gosched()
		}
		// The install is visible before ResizeStripes releases the old
		// generation's stripes; wait for a's, or the re-read below aborts
		// on the migration lock rather than testing the dual-table window.
		old := d.tbls.Load().prev
		for old.stripes[old.indexOf(a.id)].word.Load()&1 != 0 {
			runtime.Gosched()
		}
		// A direct write during the migration window bumps both tables;
		// disjoint from a (in the old table), it must not doom this tx.
		Store(nil, b, 9)
		if Load(tx, a) != 1 {
			t.Error("pinned re-read failed after disjoint write during migration")
		}
		Store(tx, a, 2)
	})
	if st != Committed {
		t.Fatalf("status = %v, want commit across the swap", st)
	}
	<-swapped
	if Load(nil, a) != 2 || Load(nil, b) != 9 {
		t.Fatalf("a=%d b=%d after swap, want 2, 9", Load(nil, a), Load(nil, b))
	}
	if d.Remaps() != 1 {
		t.Fatalf("Remaps() = %d, want 1", d.Remaps())
	}
}

// TestPinnedTxStillSeesConflictsDuringMigration is the other half of the
// grace-period argument: a write to the very Var a pinned transaction read
// must still abort it mid-migration — the writer bumps the OLD generation's
// stripe too, because the pinned reader validates there.
func TestPinnedTxStillSeesConflictsDuringMigration(t *testing.T) {
	d := NewDomainStripes(0, 0, 256)
	a := NewVar(d, 1)
	swapped := make(chan struct{})
	var resized sync.Once
	st, alias := d.AtomicallyClassified(func(tx *Tx) {
		Load(tx, a)
		resized.Do(func() {
			go func() {
				defer close(swapped)
				d.ResizeStripes(1024)
			}()
			for d.Stripes() != 1024 {
				runtime.Gosched()
			}
		})
		Store(nil, a, 7) // same Var: dual-table bump must reach the old stripe
		Load(tx, a)      // must abort here
		t.Error("pinned read survived a same-Var write during migration")
	})
	if st != AbortConflict || alias {
		t.Fatalf("(status, alias) = (%v, %v), want (conflict, false)", st, alias)
	}
	<-swapped
}

// TestResizeUnderLoad is the acceptance stress: transactional increments,
// direct CAS loops, and single-leg MultiCAS traffic run flat out while a
// controller goroutine swaps the stripe table up and down repeatedly. Run
// under -race this exercises every dual-table writer path with commits in
// flight; the final counts prove no update was lost across any swap.
func TestResizeUnderLoad(t *testing.T) {
	d := NewDomainStripes(0, 0, 64)
	const workers = 6
	const opsPer = 4000
	vars := make([]*Var[int], workers)
	for i := range vars {
		vars[i] = NewVar(d, 0)
	}
	var stop atomic.Bool
	var ctrl, work sync.WaitGroup
	ctrl.Add(1)
	go func() { // the remap controller
		defer ctrl.Done()
		sizes := []int{128, 32, 512, 64, 256}
		for i := 0; !stop.Load(); i++ {
			d.ResizeStripes(sizes[i%len(sizes)])
			runtime.Gosched()
		}
	}()
	for w := 0; w < workers; w++ {
		work.Add(1)
		go func(v *Var[int]) {
			defer work.Done()
			for i := 0; i < opsPer; i++ {
				switch i % 3 {
				case 0:
					for {
						if d.Atomically(func(tx *Tx) {
							Store(tx, v, Load(tx, v)+1)
						}) == Committed {
							break
						}
					}
				case 1:
					for {
						x := Load(nil, v)
						if CAS(nil, v, x, x+1) {
							break
						}
					}
				default:
					for {
						x := Load(nil, v)
						if MultiCAS(NewUpdate(v, x, x+1)) {
							break
						}
					}
				}
			}
		}(vars[w])
	}
	// Grace periods end as worker attempts retire, so the controller never
	// deadlocks against the workers; wait for the workers, then stop it.
	work.Wait()
	stop.Store(true)
	ctrl.Wait()
	for i, v := range vars {
		if got := Load(nil, v); got != opsPer {
			t.Fatalf("var %d = %d, want %d: updates lost across swaps", i, got, opsPer)
		}
	}
	if d.Remaps() == 0 {
		t.Fatal("controller never completed a swap under load")
	}
}

// TestResizeWithMultiCASDescriptorsInFlight drives wide MultiCAS
// publications (descriptor claims spanning many stripes) concurrently with
// swaps: the decision path must lock both generations and the parked
// window must resolve correctly whichever table generation decides it.
func TestResizeWithMultiCASDescriptorsInFlight(t *testing.T) {
	d := NewDomainStripes(0, 0, 64)
	const legs = 8
	const rounds = 1500
	vars := make([]*Var[int], legs)
	for i := range vars {
		vars[i] = NewVar(d, 0)
	}
	var stop atomic.Bool
	var ctrl, work sync.WaitGroup
	ctrl.Add(1)
	go func() {
		defer ctrl.Done()
		for i := 0; !stop.Load(); i++ {
			if i%2 == 0 {
				d.ResizeStripes(256)
			} else {
				d.ResizeStripes(64)
			}
			runtime.Gosched()
		}
	}()
	for w := 0; w < 2; w++ {
		work.Add(1)
		go func() {
			defer work.Done()
			for r := 0; r < rounds; r++ {
				for {
					ents := make([]Entry, legs)
					old := make([]int, legs)
					for i, v := range vars {
						old[i] = Load(nil, v)
					}
					for i, v := range vars {
						ents[i] = NewUpdate(v, old[i], old[i]+1)
					}
					if MultiCASParked(runtime.Gosched, ents...) {
						break
					}
				}
			}
		}()
	}
	// Two workers, each round adds exactly 1 to every leg iff the whole
	// MultiCAS succeeded; total per leg must be 2*rounds.
	work.Wait()
	stop.Store(true)
	ctrl.Wait()
	for i, v := range vars {
		if got := Load(nil, v); got != 2*rounds {
			t.Fatalf("leg %d = %d, want %d", i, got, 2*rounds)
		}
	}
}
