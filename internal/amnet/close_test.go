package amnet

import (
	"runtime"
	"testing"
	"time"
)

// TestCloseLeaksNoPumpGoroutines pins that closing a lane-sharded
// network tears down every pump goroutine, busy or parked: the
// goroutine count settles back to its pre-network level.
func TestCloseLeaksNoPumpGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 4; round++ {
		nw, err := NewChanNetwork(ChanConfig{Nodes: 4, Lanes: 4})
		if err != nil {
			t.Fatal(err)
		}
		eps := nw.Endpoints()
		eps[1].Register(1, func(m Msg) {})
		// One lane has just delivered; the others never woke.
		eps[0].Send(Msg{Dst: 1, Handler: 1})
		time.Sleep(time.Millisecond)
		if err := nw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked across Close: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
