package amnet

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLanesFIFOStress hammers one destination from several concurrent
// senders across lane counts and checks the per-(sender,handler) FIFO
// contract. The handler records each sender's sequence in a plain
// (unsynchronized) per-sender slot: lane keying by source must
// serialize all handler runs for one sender, so under -race the slots
// double as a detector proof — two concurrent handler runs for the
// same sender would be a data race, not just a reordering.
func TestLanesFIFOStress(t *testing.T) {
	const (
		nodes     = 5
		perSender = 5000
	)
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, lanes := range []int{1, 2, 8} {
		nw, err := NewChanNetwork(ChanConfig{Nodes: nodes, Lanes: lanes})
		if err != nil {
			t.Fatalf("lanes=%d: NewChanNetwork: %v", lanes, err)
		}
		eps := nw.Endpoints()
		last := make([]uint64, nodes) // plain per-sender slots, see above
		var seen atomic.Uint64
		done := make(chan struct{})
		bad := make(chan string, 1)
		eps[0].Register(9, func(m Msg) {
			if m.A != last[m.Src]+1 {
				select {
				case bad <- "fifo violation":
				default:
				}
			}
			last[m.Src] = m.A
			if seen.Add(1) == uint64(perSender*(nodes-1)) {
				close(done)
			}
		})
		var wg sync.WaitGroup
		for src := 1; src < nodes; src++ {
			wg.Add(1)
			go func(src int) {
				defer wg.Done()
				for i := 1; i <= perSender; i++ {
					eps[src].Send(Msg{Dst: 0, Handler: 9, A: uint64(i)})
				}
			}(src)
		}
		wg.Wait()
		select {
		case <-done:
		case msg := <-bad:
			t.Fatalf("lanes=%d: %s", lanes, msg)
		case <-time.After(10 * time.Second):
			t.Fatalf("lanes=%d: stalled at %d/%d", lanes, seen.Load(), perSender*(nodes-1))
		}
		for src := 1; src < nodes; src++ {
			if last[src] != perSender {
				t.Fatalf("lanes=%d: sender %d delivered %d of %d", lanes, src, last[src], perSender)
			}
		}
		nw.Close()
	}
}

// TestLanesDispatchConcurrently proves sharding actually runs handlers
// from different senders at the same time: with two lanes, a handler
// serving sender 1 parks until the handler serving sender 2 — which
// must be on the other lane's pump — releases it. A single dispatch
// pump would deadlock here (the second message can't dispatch while the
// first handler blocks), so completion is the proof.
func TestLanesDispatchConcurrently(t *testing.T) {
	nw, err := NewChanNetwork(ChanConfig{Nodes: 3, Lanes: 2})
	if err != nil {
		t.Fatalf("NewChanNetwork: %v", err)
	}
	defer nw.Close()
	eps := nw.Endpoints()
	release := make(chan struct{})
	done := make(chan struct{})
	eps[0].Register(9, func(m Msg) {
		switch m.Src {
		case 1: // lane 1 % 2: parks until the other lane runs
			<-release
			close(done)
		case 2: // lane 2 % 2 = 0: releases the parked handler
			close(release)
		}
	})
	eps[1].Send(Msg{Dst: 0, Handler: 9})
	// The parked handler occupies its lane before sender 2's message
	// arrives, so the release can only come from the other lane.
	time.Sleep(10 * time.Millisecond)
	eps[2].Send(Msg{Dst: 0, Handler: 9})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handlers did not run concurrently: sharded lanes are serialized")
	}
}

// TestLanesClamped checks the lane count is clamped to the node count
// and that degenerate values fall back to one lane.
func TestLanesClamped(t *testing.T) {
	for _, tc := range []struct{ lanes, nodes, want int }{
		{0, 4, 1}, {-3, 4, 1}, {1, 4, 1}, {3, 4, 3}, {9, 4, 4},
	} {
		if got := len(NewInbox(tc.lanes, tc.nodes, headerBytes, nil).boxes); got != tc.want {
			t.Errorf("NewInbox(%d lanes, %d nodes) has %d lanes, want %d", tc.lanes, tc.nodes, got, tc.want)
		}
	}
}
