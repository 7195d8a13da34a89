package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Span categories: the layer boundary a span was recorded at. The
// traced run times every call the benchmark makes into a layer through
// its own wrappers (tracedRT for the runtime, tracedClient for the
// gateway) and files it under one of these.
const (
	catSolve = iota // apps: one application solve on one processor (root)
	catOpen         // core: bracket opens, StartRead/StartWrite
	catClose        // core: bracket closes, EndRead/EndWrite
	catMap          // core: Map/Unmap
	catSync         // core: Barrier, BarrierSpace, Lock, Unlock
	catColl         // core: AllReduce*, Broadcast*
	catSpace        // core: NewSpace, FreeSpace, ChangeProtocol, Malloc*
	catOp           // gateway: one client op, due time to its delivery (root)
	catSend         // gateway: the client's Send call
	numCats
)

var catNames = [numCats]string{"apps.solve", "core.bracket_open", "core.bracket_close", "core.map", "core.sync", "core.coll", "core.space", "gateway.op", "gateway.client_send"}

// span is one recorded layer call: what caused it (parent), where it
// ran, and when. Times are nanoseconds since the benchmark started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Proc   int    `json:"proc"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

var (
	traceEpoch = time.Now()
	spanIDs    atomic.Uint64
)

func nowNs() int64 { return int64(time.Since(traceEpoch)) }

// ringSpans bounds the child spans each recorder keeps for the span
// file: the per-layer aggregates see every span, the file only the
// most recent ones (a paper-scale em3d solve makes millions of bracket
// calls).
const ringSpans = 4096

// recorder collects the spans of one goroutine — one processor of an
// app solve, or one gateway connection — without locks. Roots (solves
// and ops) are kept in full, children in a ring; every span feeds the
// per-category totals.
type recorder struct {
	proc  int
	ids   uint64 // next span id; each recorder owns a disjoint id block
	roots []span
	ring  []span
	next  int

	total [numCats]int64 // ns per category
	hists [numCats]hist
}

func newRecorder(proc int) *recorder {
	return &recorder{proc: proc, ids: spanIDs.Add(1) << 32, ring: make([]span, 0, ringSpans)}
}

// root opens a root span and returns its id; finish it with endRoot.
func (r *recorder) root(cat int, start int64) span {
	r.ids++
	return span{ID: r.ids, Name: catNames[cat], Proc: r.proc, Start: start}
}

func (r *recorder) endRoot(cat int, s span, end int64) {
	s.End = end
	r.roots = append(r.roots, s)
	r.total[cat] += end - s.Start
	r.hists[cat].add(end - s.Start)
}

// child records one completed call made on behalf of parent.
func (r *recorder) child(cat int, name string, parent uint64, start, end int64) {
	r.total[cat] += end - start
	r.hists[cat].add(end - start)
	r.ids++
	s := span{ID: r.ids, Parent: parent, Name: name, Proc: r.proc, Start: start, End: end}
	if len(r.ring) < ringSpans {
		r.ring = append(r.ring, s)
		return
	}
	r.ring[r.next] = s
	r.next = (r.next + 1) % ringSpans
}

// spanLog accumulates the recorders of a traced run and writes their
// spans out when the benchmark ends.
type spanLog struct {
	mu   sync.Mutex
	recs []*recorder
}

func (l *spanLog) add(r *recorder) {
	l.mu.Lock()
	l.recs = append(l.recs, r)
	l.mu.Unlock()
}

// hists merges the per-category duration histograms of every recorder.
func (l *spanLog) hists() *[numCats]hist {
	l.mu.Lock()
	defer l.mu.Unlock()
	hs := new([numCats]hist)
	for _, r := range l.recs {
		for c := range hs {
			hs[c].merge(&r.hists[c])
		}
	}
	return hs
}

// write stores every kept span as one JSON object per line.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var spans []span
	l.mu.Lock()
	for _, r := range l.recs {
		spans = append(append(spans, r.roots...), r.ring...)
	}
	l.mu.Unlock()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
