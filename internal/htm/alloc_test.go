//go:build !race

// The race detector instruments allocations, so these budgets hold only in
// ordinary builds.

package htm

import "testing"

// assertAllocs fails t unless one run of f allocates exactly want objects
// on average.
func assertAllocs(t *testing.T, want float64, f func()) {
	t.Helper()
	if got := testing.AllocsPerRun(1000, f); got != want {
		t.Fatalf("allocs per attempt = %v, want %v", got, want)
	}
}

// TestAllocsReadOnlyCommit pins the read-only fast path at zero allocations:
// the Tx and its read set are recycled.
func TestAllocsReadOnlyCommit(t *testing.T) {
	d := NewDomain(0, 0)
	x, y := NewVar(d, uint64(1)), NewVar(d, uint64(2))
	var sink uint64
	body := func(tx *Tx) { sink += Load(tx, x) + Load(tx, y) }
	assertAllocs(t, 0, func() {
		if d.Atomically(body) != Committed {
			t.Fatal("read-only attempt did not commit")
		}
	})
}

// TestAllocsReadModifyWriteCommit pins a single-Var read-modify-write at one
// allocation — the immutable cell the commit publishes — for a value type
// that would otherwise be boxed and for a pointer type.
func TestAllocsReadModifyWriteCommit(t *testing.T) {
	d := NewDomain(0, 0)
	t.Run("uint64", func(t *testing.T) {
		v := NewVar(d, uint64(0))
		body := func(tx *Tx) { Store(tx, v, Load(tx, v)+1) }
		assertAllocs(t, 1, func() {
			if d.Atomically(body) != Committed {
				t.Fatal("rmw attempt did not commit")
			}
		})
	})
	t.Run("pointer", func(t *testing.T) {
		a, b := new(int), new(int)
		v := NewVar(d, a)
		body := func(tx *Tx) {
			if Load(tx, v) == a {
				Store(tx, v, b)
			} else {
				Store(tx, v, a)
			}
		}
		assertAllocs(t, 1, func() {
			if d.Atomically(body) != Committed {
				t.Fatal("rmw attempt did not commit")
			}
		})
	})
}

// TestAllocsExplicitAbort pins an explicit abort at zero allocations:
// unwinding to Atomically allocates nothing.
func TestAllocsExplicitAbort(t *testing.T) {
	d := NewDomain(0, 0)
	v := NewVar(d, uint64(0))
	readAbort := func(tx *Tx) {
		Load(tx, v)
		tx.Abort(1)
	}
	assertAllocs(t, 0, func() {
		if d.Atomically(readAbort) != AbortExplicit {
			t.Fatal("attempt did not abort explicitly")
		}
	})
}

// TestAllocsCapacityAbort pins read- and write-capacity aborts at zero
// allocations.
func TestAllocsCapacityAbort(t *testing.T) {
	d := NewDomain(1, -1)
	x, y := NewVar(d, uint64(0)), NewVar(d, uint64(0))
	reads := func(tx *Tx) { Load(tx, x); Load(tx, y) }
	writes := func(tx *Tx) { Store(tx, x, 1) }
	assertAllocs(t, 0, func() {
		if d.Atomically(reads) != AbortCapacity || d.Atomically(writes) != AbortCapacity {
			t.Fatal("attempts did not abort on capacity")
		}
	})
}
