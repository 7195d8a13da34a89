package main

import (
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/rtiface"
)

// appTracer is the traced run's view of the apps: one recorder per
// processor, reused across solves (a processor's solves run one after
// another, and Run returning orders them).
type appTracer struct {
	log  spanLog
	recs [appProcs]*recorder
	cur  [appProcs][numCats]int64 // per processor: span time in the current solve
}

func newAppTracer() *appTracer {
	t := &appTracer{}
	for i := range t.recs {
		t.recs[i] = newRecorder(i)
		t.log.add(t.recs[i])
	}
	return t
}

// wrap opens processor id's solve span and returns the runtime its app
// must use, plus the function that closes the span.
func (t *appTracer) wrap(id int, rt *rtiface.AceRT) (rtiface.RT, func()) {
	rec := t.recs[id]
	before := rec.total
	root := rec.root(catSolve, nowNs())
	return &tracedRT{rt: rt, rec: rec, parent: root.ID}, func() {
		rec.endRoot(catSolve, root, nowNs())
		for c := range t.cur[id] {
			t.cur[id][c] = rec.total[c] - before[c]
		}
	}
}

// take returns the finished solve's span time per category, summed over
// processors, and its compute time: solve time outside every runtime
// call, averaged over processors. Call it after Run returns.
func (t *appTracer) take() (spans [numCats]int64, self int64) {
	for id := range t.cur {
		var calls int64
		for c, v := range t.cur[id] {
			spans[c] += v
			if c != catSolve {
				calls += v
			}
		}
		self += t.cur[id][catSolve] - calls
	}
	t.cur = [appProcs][numCats]int64{}
	return spans, self / appProcs
}

// tracedRT implements rtiface.SpaceRT over the Ace runtime, recording a
// span around every call an app makes into the runtime.
type tracedRT struct {
	rt     *rtiface.AceRT
	rec    *recorder
	parent uint64
}

var _ rtiface.SpaceRT = (*tracedRT)(nil)

func (t *tracedRT) done(cat int, name string, start int64) {
	t.rec.child(cat, name, t.parent, start, nowNs())
}

func (t *tracedRT) ID() int                          { return t.rt.ID() }
func (t *tracedRT) Procs() int                       { return t.rt.Procs() }
func (t *tracedRT) Name() string                     { return t.rt.Name() }
func (t *tracedRT) Capabilities() rtiface.Capability { return t.rt.Capabilities() }

func (t *tracedRT) Malloc(size int) core.RegionID {
	s := nowNs()
	defer t.done(catSpace, "Malloc", s)
	return t.rt.Malloc(size)
}

func (t *tracedRT) Map(id core.RegionID) rtiface.Handle {
	s := nowNs()
	defer t.done(catMap, "Map", s)
	return t.rt.Map(id)
}

func (t *tracedRT) Unmap(h rtiface.Handle) {
	s := nowNs()
	t.rt.Unmap(h)
	t.done(catMap, "Unmap", s)
}

func (t *tracedRT) StartRead(h rtiface.Handle) {
	s := nowNs()
	t.rt.StartRead(h)
	t.done(catOpen, "StartRead", s)
}

func (t *tracedRT) EndRead(h rtiface.Handle) {
	s := nowNs()
	t.rt.EndRead(h)
	t.done(catClose, "EndRead", s)
}

func (t *tracedRT) StartWrite(h rtiface.Handle) {
	s := nowNs()
	t.rt.StartWrite(h)
	t.done(catOpen, "StartWrite", s)
}

func (t *tracedRT) EndWrite(h rtiface.Handle) {
	s := nowNs()
	t.rt.EndWrite(h)
	t.done(catClose, "EndWrite", s)
}

func (t *tracedRT) Barrier() {
	s := nowNs()
	t.rt.Barrier()
	t.done(catSync, "Barrier", s)
}

func (t *tracedRT) Lock(h rtiface.Handle) {
	s := nowNs()
	t.rt.Lock(h)
	t.done(catSync, "Lock", s)
}

func (t *tracedRT) Unlock(h rtiface.Handle) {
	s := nowNs()
	t.rt.Unlock(h)
	t.done(catSync, "Unlock", s)
}

func (t *tracedRT) Broadcast(root int, data []byte) []byte {
	s := nowNs()
	defer t.done(catColl, "Broadcast", s)
	return t.rt.Broadcast(root, data)
}

func (t *tracedRT) BroadcastID(root int, id core.RegionID) core.RegionID {
	s := nowNs()
	defer t.done(catColl, "BroadcastID", s)
	return t.rt.BroadcastID(root, id)
}

func (t *tracedRT) BroadcastIDs(root int, ids []core.RegionID) []core.RegionID {
	s := nowNs()
	defer t.done(catColl, "BroadcastIDs", s)
	return t.rt.BroadcastIDs(root, ids)
}

func (t *tracedRT) AllReduceInt64(op core.ReduceOp, v int64) int64 {
	s := nowNs()
	defer t.done(catColl, "AllReduceInt64", s)
	return t.rt.AllReduceInt64(op, v)
}

func (t *tracedRT) AllReduceFloat64(op core.ReduceOp, v float64) float64 {
	s := nowNs()
	defer t.done(catColl, "AllReduceFloat64", s)
	return t.rt.AllReduceFloat64(op, v)
}

func (t *tracedRT) NewSpace(protoName string) (rtiface.SpaceID, error) {
	s := nowNs()
	defer t.done(catSpace, "NewSpace", s)
	return t.rt.NewSpace(protoName)
}

func (t *tracedRT) FreeSpace(sp rtiface.SpaceID) error {
	s := nowNs()
	defer t.done(catSpace, "FreeSpace", s)
	return t.rt.FreeSpace(sp)
}

func (t *tracedRT) MallocIn(sp rtiface.SpaceID, size int) core.RegionID {
	s := nowNs()
	defer t.done(catSpace, "MallocIn", s)
	return t.rt.MallocIn(sp, size)
}

func (t *tracedRT) MallocInE(sp rtiface.SpaceID, size int) (core.RegionID, error) {
	s := nowNs()
	defer t.done(catSpace, "MallocInE", s)
	return t.rt.MallocInE(sp, size)
}

func (t *tracedRT) BarrierSpace(sp rtiface.SpaceID) {
	s := nowNs()
	t.rt.BarrierSpace(sp)
	t.done(catSync, "BarrierSpace", s)
}

func (t *tracedRT) ChangeProtocol(sp rtiface.SpaceID, protoName string) error {
	s := nowNs()
	defer t.done(catSpace, "ChangeProtocol", s)
	return t.rt.ChangeProtocol(sp, protoName)
}
