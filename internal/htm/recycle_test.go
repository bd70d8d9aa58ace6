package htm

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestRecycledTxCarriesNoState runs attempts that buffer writes (short and
// indexed write logs) and reads and then abort, and checks that the attempts
// after them — which reuse the recycled Tx on this goroutine, and may on the
// others — start clean: reads see committed values, not a stale pending
// write, and a stale read-set bit cannot hide a read from commit validation.
func TestRecycledTxCarriesNoState(t *testing.T) {
	d := NewDomain(0, 0)
	x := NewVar(d, 10)
	y := NewVar(d, 0)
	big := make([]*Var[int], 2*smallWriteSet)
	for i := range big {
		big[i] = NewVar(d, 0)
	}
	dirty := func(garbage int) {
		if st := d.Atomically(func(tx *Tx) {
			Load(tx, x)
			Store(tx, x, garbage)
			tx.Abort(1)
		}); st != AbortExplicit {
			t.Errorf("dirty attempt: %v, want explicit abort", st)
		}
		if st := d.Atomically(func(tx *Tx) {
			for _, v := range big {
				Store(tx, v, garbage)
			}
			Store(tx, x, garbage)
			tx.Abort(1)
		}); st != AbortExplicit {
			t.Errorf("dirty indexed attempt: %v, want explicit abort", st)
		}
	}
	clean := func() {
		var got int
		if st := d.Atomically(func(tx *Tx) { got = Load(tx, x) + Load(tx, big[0]) }); st != Committed {
			t.Errorf("read attempt: %v, want commit", st)
		}
		if got != 10 {
			t.Errorf("read %d after aborted attempts, want the committed 10", got)
		}
	}

	dirty(99)
	clean()
	// Read x, let a direct store overwrite it mid-attempt, then write y: the
	// commit must validate the read of x and abort. A read-set bit left set
	// by an earlier attempt would have kept x out of the validated records.
	dirty(99)
	st := d.Atomically(func(tx *Tx) {
		Load(tx, x)
		Store(nil, x, 11)
		Store(tx, y, 1)
	})
	if st != AbortConflict {
		t.Fatalf("attempt with an overwritten read: %v, want conflict", st)
	}
	Store(nil, x, 10)
	// The same, after a commit that validated with x's stripe locked: a
	// locked-stripe bit it left behind would make this commit judge x's
	// unlocked stripe by another stripe's pre-lock word.
	u := disjointVar(t, d, x)
	if st := d.Atomically(func(tx *Tx) {
		Load(tx, x)
		Store(nil, u, 1) // advance the clock so the commit validates
		Store(tx, x, 10)
	}); st != Committed {
		t.Fatalf("validating commit: %v, want commit", st)
	}
	st = d.Atomically(func(tx *Tx) {
		Load(tx, x)
		Store(nil, x, 11)
		Store(tx, u, 2)
	})
	if st != AbortConflict {
		t.Fatalf("attempt with an overwritten read after a validating commit: %v, want conflict", st)
	}
	Store(nil, x, 10)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				dirty(1000*g + i)
				clean()
			}
		}(g)
	}
	wg.Wait()
}

// TestForeignPanicReleasesPin checks that an attempt ended by a panic that
// is not an abort — recovered by the caller — or by runtime.Goexit releases
// its stripe-table pin, so a later ResizeStripes finds no pinned
// transaction and completes instead of waiting forever.
func TestForeignPanicReleasesPin(t *testing.T) {
	d := NewDomain(0, 0)
	x := NewVar(d, 0)
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want the body's own panic", r)
			}
		}()
		d.Atomically(func(tx *Tx) {
			Store(tx, x, 1)
			panic("boom")
		})
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.Atomically(func(tx *Tx) {
			Load(tx, x)
			runtime.Goexit()
		})
	}()
	<-done
	if n := d.table().active.Load(); n != 0 {
		t.Fatalf("%d transactions still pinned after the panic and the Goexit, want 0", n)
	}
	resized := make(chan struct{})
	go func() {
		defer close(resized)
		d.ResizeStripes(512)
	}()
	select {
	case <-resized:
	case <-time.After(10 * time.Second):
		t.Fatal("ResizeStripes still waiting for a pinned transaction after 10s")
	}
	if got := Load(nil, x); got != 0 {
		t.Fatalf("x = %d, want 0: the panicking attempt must not commit", got)
	}
}

// TestRecycledTxStress mixes, on many goroutines, committing transfers,
// explicitly aborted ones, read-capacity aborts, transfers whose write sets
// outgrow the linear read-own-writes scan, and read-only snapshots, while
// the stripe table is resized underneath them. Committed snapshots and the
// final state must conserve the total.
func TestRecycledTxStress(t *testing.T) {
	const (
		accounts = 48
		initial  = 1000
		total    = accounts * initial
	)
	d := NewDomain(accounts+16, accounts)
	acct := make([]*Var[int], accounts)
	for i := range acct {
		acct[i] = NewVar(d, initial)
	}
	workers, iters := 8, 1500
	if testing.Short() {
		iters = 300
	}
	stop := make(chan struct{})
	resized := make(chan struct{})
	go func() {
		defer close(resized)
		sizes := []int{4, 64, 256, 1024}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			d.ResizeStripes(sizes[i%len(sizes)])
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				a, b := rng.Intn(accounts), rng.Intn(accounts)
				switch i % 5 {
				case 0: // committed transfer
					for d.Atomically(func(tx *Tx) {
						Store(tx, acct[a], Load(tx, acct[a])-1)
						Store(tx, acct[b], Load(tx, acct[b])+1)
					}) != Committed {
					}
				case 1: // transfer, then explicit abort
					d.Atomically(func(tx *Tx) {
						Store(tx, acct[a], Load(tx, acct[a])-7)
						Store(tx, acct[b], Load(tx, acct[b])+3)
						tx.Abort(1)
					})
				case 2: // reads past the read capacity
					if st := d.Atomically(func(tx *Tx) {
						for k := 0; k < 2*accounts; k++ {
							Load(tx, acct[k%accounts])
						}
					}); st == Committed || st == AbortExplicit {
						t.Errorf("over-capacity read attempt: %v", st)
					}
				case 3: // rotation through more Vars than the linear scan covers
					n := 2 * smallWriteSet
					for d.Atomically(func(tx *Tx) {
						for k := 0; k < n; k++ {
							from, to := acct[(a+k)%accounts], acct[(a+k+1)%accounts]
							Store(tx, from, Load(tx, from)-1)
							Store(tx, to, Load(tx, to)+1)
						}
					}) != Committed {
					}
				case 4: // snapshot
					sum := 0
					if d.Atomically(func(tx *Tx) {
						sum = 0
						for _, v := range acct {
							sum += Load(tx, v)
						}
					}) == Committed && sum != total {
						t.Errorf("committed snapshot sums to %d, want %d", sum, total)
					}
				}
			}
		}(int64(g) + 1)
	}
	wg.Wait()
	close(stop)
	<-resized

	sum := 0
	for _, v := range acct {
		sum += Load(nil, v)
	}
	if sum != total {
		t.Fatalf("final total %d, want %d", sum, total)
	}
}
