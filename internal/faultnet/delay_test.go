package faultnet

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/acedsm/ace/internal/amnet"
)

// wrapChan wraps an n-node channel network with p.
func wrapChan(t *testing.T, n int, p Policy) *Network {
	t.Helper()
	inner, err := amnet.NewChanNetwork(amnet.ChanConfig{Nodes: n})
	if err != nil {
		t.Fatal(err)
	}
	return Wrap(inner, p)
}

// TestLatencyInjection: a message is not delivered before Policy.Delay.
func TestLatencyInjection(t *testing.T) {
	const lat = 30 * time.Millisecond
	nw := wrapChan(t, 2, Policy{Delay: lat})
	defer nw.Close()
	eps := nw.Endpoints()
	got := make(chan time.Time, 1)
	eps[1].Register(1, func(m amnet.Msg) { got <- time.Now() })
	start := time.Now()
	eps[0].Send(amnet.Msg{Dst: 1, Handler: 1})
	select {
	case at := <-got:
		if d := at.Sub(start); d < lat {
			t.Fatalf("delivered after %v, want >= %v", d, lat)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("delivery timeout")
	}
}

// TestLatencyNoHeadOfLineBlocking sends two delayed messages ε apart and
// checks they arrive ε apart (each at its own due time), and that a
// self-send, which never touches the wire, overtakes delayed traffic
// rather than queueing behind it.
func TestLatencyNoHeadOfLineBlocking(t *testing.T) {
	const lat = 60 * time.Millisecond
	const eps = 15 * time.Millisecond
	nw := wrapChan(t, 2, Policy{Delay: lat})
	defer nw.Close()
	es := nw.Endpoints()
	type arrival struct {
		a  uint64
		at time.Time
	}
	arrivals := make(chan arrival, 4)
	es[1].Register(1, func(m amnet.Msg) { arrivals <- arrival{m.A, time.Now()} })
	selfGot := make(chan time.Time, 1)
	es[1].Register(2, func(m amnet.Msg) { selfGot <- time.Now() })

	start := time.Now()
	es[0].Send(amnet.Msg{Dst: 1, Handler: 1, A: 1})
	time.Sleep(eps)
	es[0].Send(amnet.Msg{Dst: 1, Handler: 1, A: 2})
	// While both remote messages are still in flight, a self-send on the
	// destination must be delivered immediately.
	es[1].Send(amnet.Msg{Dst: 1, Handler: 2})
	select {
	case at := <-selfGot:
		if d := at.Sub(start); d > lat/2 {
			t.Errorf("self-send waited %v behind delayed traffic", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("self-send never delivered")
	}

	var at1, at2 time.Time
	for i := 0; i < 2; i++ {
		select {
		case a := <-arrivals:
			if a.a == 1 {
				at1 = a.at
			} else {
				at2 = a.at
			}
		case <-time.After(2 * time.Second):
			t.Fatal("delayed message never delivered")
		}
	}
	if d := at1.Sub(start); d < lat {
		t.Errorf("first message arrived after %v, want >= %v", d, lat)
	}
	if gap := at2.Sub(at1); gap > lat/2 {
		t.Errorf("messages sent %v apart arrived %v apart (head-of-line blocking)", eps, gap)
	}
}

// TestCloseDrainsDelayHeapPromptly pins the close-then-drain contract of
// the delay scheduler: messages still waiting out Policy.Delay when
// Close is called are delivered before Close returns — without waiting
// out their residual delay — and nothing is delivered after.
func TestCloseDrainsDelayHeapPromptly(t *testing.T) {
	const lat = 2 * time.Second
	nw := wrapChan(t, 2, Policy{Delay: lat})
	var delivered atomic.Int64
	eps := nw.Endpoints()
	eps[1].Register(1, func(m amnet.Msg) { delivered.Add(1) })

	const total = 64
	for i := 0; i < total; i++ {
		eps[0].Send(amnet.Msg{Dst: 1, Handler: 1, A: uint64(i)})
	}
	start := time.Now()
	if err := nw.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= lat {
		t.Fatalf("Close waited out the delay: took %v with %v delay", elapsed, lat)
	}
	if n := delivered.Load(); n != total {
		t.Fatalf("Close returned with %d of %d delayed messages delivered", n, total)
	}
	// Nothing may arrive after Close has returned.
	after := delivered.Load()
	time.Sleep(20 * time.Millisecond)
	if n := delivered.Load(); n != after {
		t.Fatalf("%d deliveries happened after Close returned", n-after)
	}
}
