package bench

// Session-gateway load measurements backing BENCH_gate.json
// (`acebench -exp gate`). One run drives four phases against a live
// gateway on loopback, with the acceptance gates enforced in the run
// itself — a failed gate fails the benchmark, not just a number in a
// report:
//
//   - Load: `Sessions` websocket sessions connect and join `Rooms`
//     rooms, all concurrently live (gate: peak concurrency and live
//     rooms meet the floors). Every session then fires `Adds` adds at
//     its own cell while reading its room's deltas; every owed delta
//     must be either read by its session or counted as a send-queue
//     drop (gate), and the drops are reported. One auditor per room
//     then checks the closed-form sums — checksum parity across
//     external clients (gate).
//
//   - Churn: after the load teardown, rooms are created and destroyed
//     in waves over the recycled slots (gate: the space table does not
//     grow past its pre-churn length — generation-tagged recycling,
//     DESIGN.md §14).
//
//   - Malformed: a client hammers the decode boundary with seeded
//     random and crafted-truncation payloads (gate: every one is
//     rejected, the session survives, and a valid op still works —
//     and the process reaching the end of the run is the zero-panic
//     proof, since a server-side panic would take the benchmark down).
//
//   - Teardown: everything closes; the table stays bounded.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"github.com/acedsm/ace/internal/gateway"
	"github.com/acedsm/ace/internal/trace"
)

// GateConfig sizes one gate benchmark run.
type GateConfig struct {
	Sessions int // concurrent client sessions (acceptance floor: 10000)
	Rooms    int // rooms the sessions spread over (acceptance floor: 100)
	Adds     int // adds each session applies to its own cell
	Procs    int // processors backing the gateway cluster
	ChurnW   int // churn waves
	ChurnR   int // rooms created+destroyed per churn wave
	BadN     int // malformed payloads hammered at the decoder

	// Workers > 0 splits the client sessions across that many worker
	// subprocesses launched from the WorkerExec argv prefix (see
	// GateWorkerArgs). One process cannot hold both ends of tens of
	// thousands of loopback sockets under a typical RLIMIT_NOFILE hard
	// limit; with workers, the parent holds only the server-side
	// descriptors. Zero runs the sessions in process.
	Workers    int
	WorkerExec []string
}

func (c GateConfig) withDefaults() GateConfig {
	if c.Sessions <= 0 {
		c.Sessions = 10000
	}
	if c.Rooms <= 0 {
		c.Rooms = 128
	}
	if c.Adds <= 0 {
		c.Adds = 8
	}
	if c.Procs <= 0 {
		c.Procs = 4
	}
	if c.ChurnW <= 0 {
		c.ChurnW = 8
	}
	if c.ChurnR <= 0 {
		c.ChurnR = 32
	}
	if c.BadN <= 0 {
		c.BadN = 4096
	}
	return c
}

// GateGates records each acceptance gate's verdict.
type GateGates struct {
	Concurrency bool `json:"concurrency"`   // peak sessions >= Sessions over >= Rooms rooms
	Delivery    bool `json:"delivery"`      // every owed delta was delivered or counted as dropped
	Parity      bool `json:"parity"`        // every auditor checksum matched the closed form
	BoundedHeap bool `json:"bounded_table"` // churn did not grow the space table
	ZeroPanics  bool `json:"zero_panics"`   // malformed phase completed with the process alive
}

// GateReport is the BENCH_gate.json document.
type GateReport struct {
	Generated  string `json:"generated_by"`
	GoVersion  string `json:"go_version"`
	HostCPUs   int    `json:"host_cpus"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Procs      int    `json:"procs"`
	Sessions   int    `json:"sessions"`
	Rooms      int    `json:"rooms"`
	Adds       int    `json:"adds_per_session"`

	PeakSessions int     `json:"peak_concurrent_sessions"`
	PeakRooms    int     `json:"peak_live_rooms"`
	ConnectSecs  float64 `json:"connect_join_seconds"`
	JoinsPerSec  float64 `json:"joins_per_sec"`
	ApplySecs    float64 `json:"apply_seconds"`
	OpsPerSec    float64 `json:"ops_per_sec"`

	// Delivery accounting for the load phase: each add owes one EvDelta
	// to every member of its room, the adder included. Delivered counts
	// what the sessions read, dropped the SlowDrop send-queue drops;
	// together they must make up expected. DeliverSecs runs from the
	// first add until they do; FramesPerFlush is the session writers'
	// coalescing factor over that span.
	DeliverSecs     float64 `json:"deliver_seconds"`
	DeltasExpected  uint64  `json:"deltas_expected"`
	DeltasDelivered uint64  `json:"deltas_delivered"`
	DeltasDropped   uint64  `json:"deltas_dropped"`
	SessionsShort   int     `json:"sessions_short"`                // sessions that read fewer deltas than owed
	WorstDelivered  float64 `json:"worst_session_delivered_ratio"` // min over sessions of read/owed
	FramesPerFlush  float64 `json:"frames_per_flush"`

	ChurnWaves       int `json:"churn_waves"`
	ChurnRooms       int `json:"churn_rooms_per_wave"`
	SlotsBeforeChurn int `json:"space_slots_before_churn"`
	SlotsBound       int `json:"space_slots_bound"`
	SlotsAfterChurn  int `json:"space_slots_after_churn"`

	Malformed uint64 `json:"malformed_frames_sent"`

	Stats struct {
		FramesIn           uint64 `json:"frames_in"`
		FramesOut          uint64 `json:"frames_out"`
		Flushes            uint64 `json:"flushes"`
		BadFrames          uint64 `json:"bad_frames"`
		OpsApplied         uint64 `json:"ops_applied"`
		OpsDropped         uint64 `json:"ops_dropped"`
		StaleSpaceRefs     uint64 `json:"stale_space_refs"`
		Broadcasts         uint64 `json:"broadcasts"`
		SendQueueDrops     uint64 `json:"send_queue_drops"`
		SlowClients        uint64 `json:"slow_clients"`
		SendQueueHighWater uint64 `json:"send_queue_high_water"`
		OpQueueHighWater   uint64 `json:"op_queue_high_water"`
	} `json:"stats"`

	Gates GateGates `json:"gates"`
}

// forEach runs fn(i) for i in [0,n) on a bounded worker pool, returning
// the first error.
func forEach(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
		err  error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				bad := err != nil
				mu.Unlock()
				if bad || i >= n {
					return
				}
				if e := fn(i); e != nil {
					mu.Lock()
					if err == nil {
						err = e
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return err
}

// RunGate executes the gate benchmark and enforces its gates: a report
// is returned even on gate failure (so the numbers can be inspected),
// alongside the error naming the failed gate.
func RunGate(cfg GateConfig) (*GateReport, error) {
	cfg = cfg.withDefaults()
	rep := &GateReport{
		Generated:  "acebench -exp gate",
		GoVersion:  runtime.Version(),
		HostCPUs:   runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Procs:      cfg.Procs,
		Sessions:   cfg.Sessions,
		Rooms:      cfg.Rooms,
		Adds:       cfg.Adds,
		ChurnWaves: cfg.ChurnW,
		ChurnRooms: cfg.ChurnR,
	}
	// In-process sessions need two descriptors each (client and server
	// end); with worker subprocesses the parent holds only the server
	// end. Either way, ask for the worst case and let the hard limit cap
	// it — the worker split exists precisely for when two-per-session
	// does not fit.
	raiseNoFile(uint64(cfg.Sessions)*2 + 4096)

	// Load-phase queues: the op queue must absorb a whole room's burst
	// (Sessions/Rooms members × Adds each), and idle sessions must not
	// be closed for missing broadcast deltas they never read — drops are
	// counted, the budget is effectively infinite.
	perRoom := (cfg.Sessions/cfg.Rooms + 1) * (cfg.Adds + 2)
	g, err := gateway.New(gateway.Config{
		Procs:      cfg.Procs,
		OpQueue:    perRoom * 2,
		SendQueue:  128,
		Policy:     gateway.SlowDrop,
		DropBudget: 1 << 30,
	})
	if err != nil {
		return rep, err
	}
	defer g.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rep, err
	}
	srv := g.Serve(ln)
	defer srv.Close()
	addr := srv.Addr()

	// Phase 1: connect and join everyone — in process, or split across
	// worker subprocesses when the descriptor budget demands it.
	fl, err := newFleet(cfg, addr)
	if err != nil {
		return rep, err
	}
	defer fl.shutdown()
	start := time.Now()
	if err := fl.join(); err != nil {
		return rep, err
	}
	rep.ConnectSecs = time.Since(start).Seconds()
	rep.JoinsPerSec = float64(cfg.Sessions) / rep.ConnectSecs
	s := g.Stats().Snapshot()
	rep.PeakSessions = int(s.SessionsOpened - s.SessionsClosed)
	rep.PeakRooms = g.LiveRooms()
	rep.Gates.Concurrency = rep.PeakSessions >= cfg.Sessions && rep.PeakRooms >= cfg.Rooms

	// Phase 2: every session adds to its own cell, fire-and-forget. The
	// clock stops when the last add is applied: each applied add makes
	// exactly one broadcast, while OpsApplied also counts gets.
	s0 := g.Stats().Snapshot()
	start = time.Now()
	if err := fl.adds(); err != nil {
		return rep, err
	}
	target := s0.Broadcasts + uint64(cfg.Sessions)*uint64(cfg.Adds)
	deadline := time.Now().Add(120 * time.Second)
	for g.Stats().Broadcasts.Load() < target {
		if time.Now().After(deadline) {
			return rep, fmt.Errorf("gate: adds never quiesced: applied %d of %d (ops dropped %d)",
				g.Stats().Broadcasts.Load()-s0.Broadcasts, target-s0.Broadcasts, g.Stats().OpsDropped.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	rep.ApplySecs = time.Since(start).Seconds()
	rep.OpsPerSec = float64(cfg.Sessions*cfg.Adds) / rep.ApplySecs
	if err := accountDeltas(rep, cfg, g, fl, s0, start); err != nil {
		return rep, err
	}

	// Parity: one fresh auditor per room reads the state and checks the
	// closed-form sums — what the room's members wrote is what an
	// external client reads back.
	want := make([][]int64, cfg.Rooms)
	for r := range want {
		want[r] = make([]int64, gateway.RoomCells)
	}
	for i := 0; i < cfg.Sessions; i++ {
		want[i%cfg.Rooms][i%gateway.RoomCells] += int64(cfg.Adds) * int64(i+1)
	}
	rep.Gates.Parity = true
	err = forEach(cfg.Rooms, 64, func(r int) error {
		c, err := gateway.DialClient(addr)
		if err != nil {
			return err
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(60 * time.Second))
		room := fmt.Sprintf("gate-%d", r)
		if _, _, err := c.Join(room); err != nil {
			return fmt.Errorf("auditor join %s: %w", room, err)
		}
		state, err := c.Get(room)
		if err != nil {
			return fmt.Errorf("auditor get %s: %w", room, err)
		}
		if got, exp := gateway.Checksum(state), gateway.Checksum(want[r]); got != exp {
			return fmt.Errorf("room %s: checksum %#x, want %#x", room, got, exp)
		}
		return nil
	})
	if err != nil {
		rep.Gates.Parity = false
		return rep, fmt.Errorf("gate: parity: %w", err)
	}

	// Teardown: close every load session (the disconnect path destroys
	// each room at its last member's departure).
	if err := fl.close(); err != nil {
		return rep, err
	}
	waitDeadline := time.Now().Add(120 * time.Second)
	for g.LiveRooms() > 0 {
		if time.Now().After(waitDeadline) {
			return rep, fmt.Errorf("gate: %d rooms still live after teardown", g.LiveRooms())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Phase 3: churn over the recycled slots. A wave holds ChurnR rooms
	// live at once, so the table may legitimately reach ChurnR+1 slots
	// (the default space holds slot 0) — but once there, waves must
	// recycle, never grow: the bound is max(before, ChurnR+1).
	rep.SlotsBeforeChurn = g.SpaceSlots()
	rep.SlotsBound = rep.SlotsBeforeChurn
	if b := cfg.ChurnR + 1; b > rep.SlotsBound {
		rep.SlotsBound = b
	}
	churn, err := gateway.DialClient(addr)
	if err != nil {
		return rep, err
	}
	defer churn.Close()
	churn.SetDeadline(time.Now().Add(120 * time.Second))
	for w := 0; w < cfg.ChurnW; w++ {
		for r := 0; r < cfg.ChurnR; r++ {
			room := fmt.Sprintf("churn-%d", r)
			if _, _, err := churn.Join(room); err != nil {
				return rep, fmt.Errorf("churn wave %d join: %w", w, err)
			}
			if err := churn.Add(room, r%gateway.RoomCells, int64(w)); err != nil {
				return rep, err
			}
		}
		for r := 0; r < cfg.ChurnR; r++ {
			if err := churn.Leave(fmt.Sprintf("churn-%d", r)); err != nil {
				return rep, fmt.Errorf("churn wave %d leave: %w", w, err)
			}
		}
		if got := g.SpaceSlots(); got > rep.SlotsBound {
			rep.SlotsAfterChurn = got
			return rep, fmt.Errorf("gate: churn wave %d grew the space table past its bound: %d > %d",
				w, got, rep.SlotsBound)
		}
	}
	rep.SlotsAfterChurn = g.SpaceSlots()
	rep.Gates.BoundedHeap = rep.SlotsAfterChurn <= rep.SlotsBound

	// Phase 4: malformed frames. Seeded random payloads plus crafted
	// truncations of valid frames; the session must survive all of them
	// and still run a valid op. The process being alive at the end of
	// the phase is the zero-panic evidence.
	rng := rand.New(rand.NewSource(1))
	mal, err := gateway.DialClient(addr)
	if err != nil {
		return rep, err
	}
	defer mal.Close()
	mal.SetDeadline(time.Now().Add(120 * time.Second))
	valid, _ := gateway.EncodeFrame(gateway.Frame{Kind: gateway.OpSet, Room: "gate-0", Cell: 1, Value: 7})
	for i := 0; i < cfg.BadN; i++ {
		var payload []byte
		switch i % 3 {
		case 0: // random bytes
			payload = make([]byte, rng.Intn(64))
			rng.Read(payload)
		case 1: // truncated valid frame
			payload = valid[:rng.Intn(len(valid))]
		default: // valid header, corrupted body
			payload = append([]byte(nil), valid...)
			payload[rng.Intn(len(payload))] ^= byte(1 + rng.Intn(255))
		}
		// Joins and leaves answer with other events (or silence); every
		// other shape — bad decode, server kind, op on a missing room —
		// draws exactly one error event, making the hammer a strict
		// request/reply loop that also proves each rejection answered.
		if len(payload) > 0 && (payload[0] == gateway.OpJoin || payload[0] == gateway.OpLeave) {
			payload[0] = 0x00
		}
		if err := mal.SendRaw(payload); err != nil {
			return rep, fmt.Errorf("gate: malformed send %d: %w", i, err)
		}
		if _, err := mal.WaitFor(gateway.EvError, ""); err != nil {
			return rep, fmt.Errorf("gate: malformed frame %d drew no error reply: %w", i, err)
		}
		rep.Malformed++
	}
	// A valid op on the same connection proves the session survived.
	if _, _, err := mal.Join("survivor"); err != nil {
		return rep, fmt.Errorf("gate: session did not survive malformed frames: %w", err)
	}
	if err := mal.Leave("survivor"); err != nil {
		return rep, err
	}
	rep.Gates.ZeroPanics = true

	final := g.Stats().Snapshot()
	rep.Stats.FramesIn = final.FramesIn
	rep.Stats.FramesOut = final.FramesOut
	rep.Stats.Flushes = final.Flushes
	rep.Stats.BadFrames = final.BadFrames
	rep.Stats.OpsApplied = final.OpsApplied
	rep.Stats.OpsDropped = final.OpsDropped
	rep.Stats.StaleSpaceRefs = final.StaleSpaceRefs
	rep.Stats.Broadcasts = final.Broadcasts
	rep.Stats.SendQueueDrops = final.SendQueueDrops
	rep.Stats.SlowClients = final.SlowClients
	rep.Stats.SendQueueHighWater = final.SendQueueHighWater
	rep.Stats.OpQueueHighWater = final.OpQueueHighWater

	if !rep.Gates.Concurrency {
		return rep, fmt.Errorf("gate: concurrency floor missed: %d sessions over %d rooms",
			rep.PeakSessions, rep.PeakRooms)
	}
	return rep, nil
}

// accountDeltas waits until every delta the load phase owes is either
// read by its session or counted as a send-queue drop, then records the
// delivery figures. Any shortfall past the deadline fails the delivery
// gate: a loss the gateway did not count is a bug, not overload.
func accountDeltas(rep *GateReport, cfg GateConfig, g *gateway.Gateway, fl sessionFleet, s0 trace.GateSnapshot, start time.Time) error {
	members := make([]uint64, cfg.Rooms)
	for i := 0; i < cfg.Sessions; i++ {
		members[i%cfg.Rooms]++
	}
	owed := func(i int) uint64 { return members[i%cfg.Rooms] * uint64(cfg.Adds) }
	for i := 0; i < cfg.Sessions; i++ {
		rep.DeltasExpected += owed(i)
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		got, err := fl.deltas()
		if err != nil {
			return err
		}
		if len(got) != cfg.Sessions {
			return fmt.Errorf("gate: delta counts for %d sessions, want %d", len(got), cfg.Sessions)
		}
		s := g.Stats().Snapshot()
		rep.DeltasDelivered, rep.SessionsShort, rep.WorstDelivered = 0, 0, 1
		for i, n := range got {
			rep.DeltasDelivered += n
			if n < owed(i) {
				rep.SessionsShort++
			}
			if r := float64(n) / float64(owed(i)); r < rep.WorstDelivered {
				rep.WorstDelivered = r
			}
		}
		rep.DeltasDropped = s.SendQueueDrops - s0.SendQueueDrops
		if accounted := rep.DeltasDelivered + rep.DeltasDropped; accounted >= rep.DeltasExpected || time.Now().After(deadline) {
			rep.DeliverSecs = time.Since(start).Seconds()
			if f := s.Flushes - s0.Flushes; f > 0 {
				rep.FramesPerFlush = float64(s.FramesOut-s0.FramesOut) / float64(f)
			}
			rep.Gates.Delivery = accounted == rep.DeltasExpected
			if !rep.Gates.Delivery {
				return fmt.Errorf("gate: delivery: %d deltas read + %d dropped, want %d owed",
					rep.DeltasDelivered, rep.DeltasDropped, rep.DeltasExpected)
			}
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// WriteGateReport runs the gate benchmark and writes BENCH_gate.json.
func WriteGateReport(w io.Writer, cfg GateConfig) (*GateReport, error) {
	rep, err := RunGate(cfg)
	if rep != nil {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if werr := enc.Encode(rep); err == nil {
			err = werr
		}
	}
	return rep, err
}
