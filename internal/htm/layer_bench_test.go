package htm

import (
	"fmt"
	"testing"
)

var layerSink uint64

// BenchmarkLayerHTM is the htm rung of the layer ledger: one uncontended
// caller running single Atomically attempts that read n Vars and commit
// (ro), read and write back n Vars and commit (rmw), or read n Vars and
// abort explicitly (abort).
func BenchmarkLayerHTM(b *testing.B) {
	for _, shape := range []string{"ro", "rmw", "abort"} {
		for _, n := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/vars=%d", shape, n), func(b *testing.B) {
				d := NewDomain(0, 0)
				vars := make([]*Var[uint64], n)
				for i := range vars {
					vars[i] = NewVar(d, uint64(i))
				}
				body, want := func(tx *Tx) {
					for _, v := range vars {
						layerSink += Load(tx, v)
					}
				}, Committed
				switch shape {
				case "rmw":
					body = func(tx *Tx) {
						for _, v := range vars {
							Store(tx, v, Load(tx, v)+1)
						}
					}
				case "abort":
					ro := body
					body = func(tx *Tx) {
						ro(tx)
						tx.Abort(1)
					}
					want = AbortExplicit
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if st := d.Atomically(body); st != want {
						b.Fatalf("status %v, want %v", st, want)
					}
				}
			})
		}
	}
}
