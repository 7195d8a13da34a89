package bench

import "testing"

// TestGateDeliveryAccounting runs the gate benchmark in process at a
// small scale: every owed delta (members² × adds per room) must be read
// or counted as dropped, and the session writers must coalesce.
func TestGateDeliveryAccounting(t *testing.T) {
	cfg := GateConfig{Sessions: 40, Rooms: 4, Adds: 4, Procs: 2, ChurnW: 1, ChurnR: 2, BadN: 30}
	rep, err := RunGate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 10 members per room, each add owed to all 10.
	if want := uint64(4 * 10 * 10 * 4); rep.DeltasExpected != want {
		t.Fatalf("deltas expected %d, want %d", rep.DeltasExpected, want)
	}
	if rep.DeltasDelivered+rep.DeltasDropped != rep.DeltasExpected || !rep.Gates.Delivery {
		t.Fatalf("delivered %d + dropped %d != expected %d", rep.DeltasDelivered, rep.DeltasDropped, rep.DeltasExpected)
	}
	if rep.Stats.Flushes == 0 || rep.FramesPerFlush < 1 {
		t.Fatalf("flushes %d, frames per flush %.2f", rep.Stats.Flushes, rep.FramesPerFlush)
	}
}
