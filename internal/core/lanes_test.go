package core

import (
	"fmt"
	"testing"

	"github.com/acedsm/ace/internal/amnet"
)

// TestShardedDispatchSyncStress exercises the handler-state audit for
// sharded dispatch: with more than one transport lane, barrier arrivals, lock
// requests and reduction contributions from different processors run on
// node 0 (and each home) concurrently, so barArr, the directory lock
// queues and collAcc are hit from multiple pump goroutines at once.
// Under -race this is the proof the new leaf locks cover them; the
// lock-protected counter and the reduction results check the semantics.
func TestShardedDispatchSyncStress(t *testing.T) {
	const (
		procs = 6
		iters = 40
	)
	for _, lanes := range []int{2, 8} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			cl, err := NewCluster(Options{Procs: procs, Transport: amnet.ChanConfig{Lanes: lanes}})
			if err != nil {
				t.Fatalf("NewCluster: %v", err)
			}
			defer cl.Close()
			err = cl.Run(func(p *Proc) error {
				var id RegionID
				if p.ID() == 0 {
					id = p.GMalloc(p.DefaultSpace(), 8)
				}
				id = p.BroadcastID(0, id)
				r := p.Map(id)
				for i := 0; i < iters; i++ {
					// All-reduce: every proc contributes, node 0's collAcc
					// takes contributions on several lanes.
					want := int64(procs * i)
					if got := p.AllReduceInt64(OpSum, int64(i)); got != want {
						return fmt.Errorf("proc %d iter %d: AllReduceInt64 = %d, want %d", p.ID(), i, got, want)
					}
					// Region lock: increment a shared counter under the
					// home-queued lock; requests race on node 0's lanes.
					p.Lock(r)
					p.StartWrite(r)
					r.Data.SetUint64(0, r.Data.Uint64(0)+1)
					p.EndWrite(r)
					p.Unlock(r)
					// Barrier: arrivals race on node 0's lanes.
					p.GlobalBarrier()
				}
				p.Lock(r)
				p.StartRead(r)
				got := r.Data.Uint64(0)
				p.EndRead(r)
				p.Unlock(r)
				if got != procs*iters {
					return fmt.Errorf("proc %d: counter = %d, want %d", p.ID(), got, procs*iters)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}
}
