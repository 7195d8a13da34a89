package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/acedsm/ace/internal/gateway"
	"github.com/acedsm/ace/internal/trace"
)

// The gateway workload: an in-process gateway with its default config
// (4 processors, sc, SlowDrop, send queue 64) and two websocket
// connections that both join every room, so each add fans out to both
// sessions. In the open-loop reference windows and ladder rungs, every
// op has a due time fixed when its rung starts and is timed from that
// due time to the sender's own delta (an add) or its EvState (a get), so
// a stall is charged to every op it delays. Each connection owns half of
// every room's cells, so the value every delta must carry is known when
// the op is scheduled.
//
// A run is a series of rounds, each on a fresh gateway: a reference
// window at a fixed rate and, untraced, a closed-loop ping-pong and
// capacity burst. A traced run then has one gateway run ascending sweeps
// over the ladder until the time is up. A sweep stops at its first rung
// that loses a delivery, so the load does not climb further into
// overload. A session the gateway closes as a slow client is reconnected
// before the next rung. Its cells are re-read and must show that only
// its last adds were lost.
//
// On a small VM, host stalls of 10-30 ms come and go, and how soon the
// host wakes an idle vCPU drifts from minute to minute. Open-loop
// latency at a low rate is mostly such wake-ups: its median moved by a
// third between runs of the same code. So the end-to-end figures come
// from the closed-loop phases, which keep the process busy, so the Go
// scheduler hands work to a spinning thread rather than waking one:
// time_ms is the ping-pong latency, rate_per_s is adds per CPU-second
// in the capacity bursts. The open-loop figures are per-layer metrics.

// gwPlan sizes the gateway workload.
type gwPlan struct {
	rooms   int
	refRate float64   // adds/s of the reference rung
	ladder  []float64 // adds/s of each sweep's rungs, ascending
	rung    time.Duration
	window  time.Duration // one reference window, ping-pong or capacity burst
}

var (
	gwPaper = gwPlan{rooms: 16, refRate: 2000, ladder: []float64{1000, 2000, 3000, 4000, 5000, 6000, 8000, 10000, 12000, 14000, 16000},
		rung: 400 * time.Millisecond, window: 600 * time.Millisecond}
	gwTiny = gwPlan{rooms: 4, refRate: 200, ladder: []float64{200, 400}, rung: 100 * time.Millisecond,
		window: 100 * time.Millisecond}
)

const (
	gwConns     = 2 // every connection joins every room
	gwGetEvery  = 10
	gwTimeout   = 250 * time.Millisecond // a delivery later than this after its due time failed
	gwP99Limit  = 5 * time.Millisecond   // a rung passes only with p99 latency within this
	gwLateLimit = gwP99Limit             // ... and the generator's p99 lateness within it
)

// gwOp is one scheduled client op.
type gwOp struct {
	conn  int
	kind  byte // gateway.OpAdd or gateway.OpGet
	room  int
	cell  int
	delta int64
	value int64   // add: the cell's value after it, which its delta event carries
	want  []int64 // get: expected values of cells [lo, lo+len(want))
	lo    int
	at    int64 // due time, ns after the rung starts
}

// gwRung is a stretch of ops at one offered rate, with what happened to
// each op.
type gwRung struct {
	name   string // warm, ref, ref-untraced, ladder, final
	rate   float64
	traced bool
	spanID uint64 // the rung's block of op span ids
	ops    []gwOp
	byConn [gwConns][]int32 // op indices per connection, in due order

	due, sent []int64 // absolute, written by the connection's generator
	arrival   [gwConns][]atomic.Int64
	got       atomic.Int64 // deliveries so far

	// window, in a closed-loop rung, holds each connection's tokens: one
	// is taken per op sent and returned when the op's last owed delivery
	// arrives (left counts them down).
	window [gwConns]chan struct{}
	left   []atomic.Int32
}

// opRef names one op of one rung.
type opRef struct {
	r *gwRung
	i int32
}

type deltaKey struct {
	room, cell int
	value      int64
}

// gwConn is one client connection: a generator sends on it, a receiver
// goroutine reads from it.
type gwConn struct {
	id   int
	c    *gateway.Client
	rec  *recorder // set while the run is traced
	dead bool      // a send failed: the gateway closed the session
	recv sync.WaitGroup

	mu      sync.Mutex
	pending map[int][]opRef // room → gets awaiting their EvState, in send order
}

// gwHooks lets the benchmark's tests perturb what the clients see.
type gwHooks struct {
	// drop, if set, is asked about every matched event; true discards it.
	drop func(conn int, r *gwRung, op *gwOp) bool
}

// gwRun is the state of one gateway run.
type gwRun struct {
	rooms  []string
	room   map[string]int
	rng    *rand.Rand
	gw     *gateway.Gateway
	srv    *gateway.Server
	addr   string
	closed uint64 // sessions of gw this run has seen end
	conns  [gwConns]*gwConn
	gens   []uint64 // per room: space generation seen at the last join
	hooks  gwHooks

	// believed is every cell's value after every add issued so far.
	believed [][]int64

	keysMu  sync.RWMutex
	keys    map[deltaKey]opRef // the deltas of the last two rungs' adds, by the value they carry
	retired [][]int64          // per room and cell: the largest value of a forgotten delta
	prev    *gwRung            // the last rung run; its keys are kept for stragglers

	wrong atomic.Int64 // events matching no expected delivery, or with wrong values
	notes chan string
}

func newGwRun(seed int64, plan gwPlan, hooks gwHooks) *gwRun {
	g := &gwRun{rng: rand.New(rand.NewSource(seed)), room: map[string]int{}, hooks: hooks,
		keys: map[deltaKey]opRef{}, notes: make(chan string, 16)}
	for len(g.rooms) < plan.rooms {
		name := fmt.Sprintf("room-%08x", g.rng.Uint32())
		if _, dup := g.room[name]; !dup {
			g.room[name] = len(g.rooms)
			g.rooms = append(g.rooms, name)
		}
	}
	g.believed = make([][]int64, plan.rooms)
	g.retired = make([][]int64, plan.rooms)
	for i := range g.believed {
		g.believed[i] = make([]int64, gateway.RoomCells)
		g.retired[i] = make([]int64, gateway.RoomCells)
	}
	g.gens = make([]uint64, plan.rooms)
	return g
}

func (g *gwRun) wrongf(format string, args ...any) {
	g.wrong.Add(1)
	select {
	case g.notes <- fmt.Sprintf(format, args...):
	default:
	}
}

// newRung schedules one rung of dur at rate adds/s: per connection, ops
// evenly spaced at half the add rate plus one get per nine adds, with
// room, cell and delta drawn from the seeded generator.
func (g *gwRun) newRung(name string, rate float64, dur time.Duration, traced bool) *gwRung {
	r := &gwRung{name: name, rate: rate, traced: traced, spanID: spanIDs.Add(1) << 32}
	perConn := rate / gwConns * gwGetEvery / (gwGetEvery - 1)
	gap := float64(time.Second) / perConn
	n := int(dur.Seconds() * perConn)
	half := gateway.RoomCells / gwConns
	g.keysMu.Lock()
	defer g.keysMu.Unlock()
	for k := 0; k < n; k++ {
		for c := 0; c < gwConns; c++ {
			op := gwOp{conn: c, room: g.rng.Intn(len(g.rooms)), at: int64(gap * (float64(k) + float64(c)/gwConns))}
			if k%gwGetEvery == gwGetEvery-1 {
				op.kind, op.lo = gateway.OpGet, c*half
				op.want = slices.Clone(g.believed[op.room][op.lo : op.lo+half])
			} else {
				op.kind = gateway.OpAdd
				op.cell = c*half + g.rng.Intn(half)
				op.delta = 1 + g.rng.Int63n(1000)
				g.believed[op.room][op.cell] += op.delta
				op.value = g.believed[op.room][op.cell]
				g.keys[deltaKey{op.room, op.cell, op.value}] = opRef{r, int32(len(r.ops))}
			}
			r.byConn[c] = append(r.byConn[c], int32(len(r.ops)))
			r.ops = append(r.ops, op)
		}
	}
	r.alloc()
	return r
}

// finalRung is one get per room on connection 0, each expecting the
// whole room state to equal the sum of every add issued.
func (g *gwRun) finalRung() *gwRung {
	r := &gwRung{name: "final", spanID: spanIDs.Add(1) << 32}
	for room := range g.rooms {
		r.byConn[0] = append(r.byConn[0], int32(len(r.ops)))
		r.ops = append(r.ops, gwOp{kind: gateway.OpGet, room: room, want: slices.Clone(g.believed[room])})
	}
	r.alloc()
	return r
}

func (r *gwRung) alloc() {
	r.due = make([]int64, len(r.ops))
	r.sent = make([]int64, len(r.ops))
	for c := range r.arrival {
		r.arrival[c] = make([]atomic.Int64, len(r.ops))
	}
}

// owed lists the connections op i must be delivered to: an add's delta
// goes to every member, a get's state to its sender.
func (r *gwRung) owed(i int) []int {
	if r.ops[i].kind == gateway.OpAdd {
		return []int{0, 1}
	}
	return []int{r.ops[i].conn}
}

func (r *gwRung) expected() int64 {
	var n int64
	for i := range r.ops {
		n += int64(len(r.owed(i)))
	}
	return n
}

// connect dials connection c and joins every room. A room whose space
// generation changed since the last join was destroyed and recreated
// (every member had gone), so its state restarts at zero.
func (g *gwRun) connect(c int) (*gwConn, error) {
	cl, err := gateway.DialClient(g.addr)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	for room, name := range g.rooms {
		_, gen, err := cl.Join(name)
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("conn %d: join %s: %w", c, name, err)
		}
		if g.gens[room] != 0 && gen != g.gens[room] {
			clear(g.believed[room])
		}
		g.gens[room] = gen
	}
	return &gwConn{id: c, c: cl, pending: map[int][]opRef{}}, nil
}

// reconnect replaces a connection the gateway closed. Its adds that were
// in flight at the close are lost, so each of its cells is re-read: the
// value must be one its own adds produced (only a suffix was lost).
func (g *gwRun) reconnect(old *gwConn) error {
	old.c.Close()
	old.recv.Wait()
	// Once the gateway has filed the disconnect, the old session's reader
	// has stopped, so every op it read is queued ahead of the re-read.
	g.closed++
	for deadline := time.Now().Add(gwTimeout); g.gw.Stats().SessionsClosed.Load() < g.closed; {
		if time.Now().After(deadline) {
			return fmt.Errorf("conn %d: gateway did not file the disconnect", old.id)
		}
		time.Sleep(time.Millisecond)
	}
	k, err := g.connect(old.id)
	if err != nil {
		return err
	}
	half := gateway.RoomCells / gwConns
	lo, hi := old.id*half, (old.id+1)*half
	for room, name := range g.rooms {
		state, err := k.c.Get(name)
		if err != nil {
			k.c.Close()
			return fmt.Errorf("conn %d: resync %s: %w", k.id, name, err)
		}
		g.keysMu.RLock()
		for cell := lo; cell < hi; cell++ {
			v := state[cell]
			ref, ok := g.keys[deltaKey{room, cell, v}]
			own := ok && ref.r.ops[ref.i].conn == old.id || !ok && v <= g.retired[room][cell]
			if v != g.believed[room][cell] && v != 0 && !own {
				g.wrongf("conn %d: resync %s[%d] = %d, not a value its adds produced", k.id, name, cell, v)
			}
		}
		g.keysMu.RUnlock()
		copy(g.believed[room][lo:hi], state[lo:hi])
	}
	k.rec = old.rec
	g.start(k)
	return nil
}

func (g *gwRun) start(k *gwConn) {
	g.conns[k.id] = k
	k.recv.Add(1)
	go func() {
		defer k.recv.Done()
		g.receive(k)
	}()
}

// receive reads connection k's events until the connection closes,
// matching each to the op it answers.
func (g *gwRun) receive(k *gwConn) {
	for {
		f, err := k.c.Recv()
		if err != nil {
			return
		}
		t := nowNs()
		room, ok := g.room[f.Room]
		if !ok {
			g.wrongf("conn %d: event %#x for unknown room %q: %s", k.id, f.Kind, f.Room, f.Msg)
			continue
		}
		var ref opRef
		switch f.Kind {
		case gateway.EvDelta:
			g.keysMu.RLock()
			ref, ok = g.keys[deltaKey{room, f.Cell, f.Value}]
			straggler := !ok && f.Cell >= 0 && f.Cell < gateway.RoomCells && f.Value <= g.retired[room][f.Cell]
			g.keysMu.RUnlock()
			if straggler {
				continue // its op was counted as failed when its rung was evaluated
			}
			if !ok {
				g.wrongf("conn %d: unexpected delta %s[%d]=%d", k.id, f.Room, f.Cell, f.Value)
				continue
			}
		case gateway.EvState:
			if ref, ok = k.matchState(room, f.State); !ok {
				g.wrongf("conn %d: state for %s matches no pending get: %v", k.id, f.Room, f.State)
				continue
			}
		default:
			g.wrongf("conn %d: event %#x for %s: %s", k.id, f.Kind, f.Room, f.Msg)
			continue
		}
		if g.hooks.drop != nil && g.hooks.drop(k.id, ref.r, &ref.r.ops[ref.i]) {
			continue
		}
		if !ref.r.arrival[k.id][ref.i].CompareAndSwap(0, t) {
			g.wrongf("conn %d: duplicate delivery of a %s op", k.id, ref.r.name)
			continue
		}
		ref.r.got.Add(1)
		if r := ref.r; r.left != nil && r.left[ref.i].Add(-1) == 0 {
			select {
			case r.window[r.ops[ref.i].conn] <- struct{}{}:
			default: // the sender gave up on this token
			}
		}
	}
}

// matchState pairs a room state with the earliest pending get whose
// expected cells it carries. Gets before it lost their state under the
// slow-client policy; they stay undelivered and count as failed.
func (k *gwConn) matchState(room int, state []int64) (opRef, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	q := k.pending[room]
	for j, ref := range q {
		op := &ref.r.ops[ref.i]
		if len(state) == gateway.RoomCells && slices.Equal(state[op.lo:op.lo+len(op.want)], op.want) {
			k.pending[room] = q[j+1:]
			return ref, true
		}
	}
	return opRef{}, false
}

// send sends op i of r, recording a span (child of the op's span) when
// traced.
func (k *gwConn) send(rooms []string, r *gwRung, i int32) error {
	op := &r.ops[i]
	f := gateway.Frame{Kind: op.kind, Room: rooms[op.room], Cell: op.cell, Value: op.delta}
	if op.kind == gateway.OpGet {
		k.mu.Lock()
		k.pending[op.room] = append(k.pending[op.room], opRef{r, i})
		k.mu.Unlock()
	}
	if !r.traced {
		return k.c.Send(f)
	}
	s := nowNs()
	err := k.c.Send(f)
	k.rec.child(catSend, "Client.Send", r.spanID|uint64(i), s, nowNs())
	return err
}

// generate sends connection k's ops of rung r at their due times.
func (g *gwRun) generate(k *gwConn, r *gwRung, start int64) error {
	for _, i := range r.byConn[k.id] {
		due := start + r.ops[i].at
		if d := due - nowNs(); d > 0 {
			pause(d)
		}
		r.due[i] = due
		r.sent[i] = nowNs()
		if err := k.send(g.rooms, r, i); err != nil {
			k.dead = true
			return fmt.Errorf("conn %d: send: %w", k.id, err)
		}
	}
	return nil
}

// pause sleeps for d ns. The generator sleeps in nanosleep rather than
// time.Sleep: the Go timer wakes sleepers at millisecond granularity on
// Linux, which would make every op up to a millisecond late and bury
// the gateway's own sub-millisecond latency under the generator's.
func pause(d int64) {
	ts := syscall.NsecToTimespec(d)
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// rungResult is one rung's measurement. It keeps no reference to the
// rung, whose op tables are freed once it is retired.
type rungResult struct {
	name              string
	rate              float64
	traced            bool
	ops, adds         int
	lat, late, skew   []float64 // ms
	attempted, failed int
	drained           bool
	sendErr           error
}

func (r rungResult) pass() bool {
	return r.sendErr == nil && r.failed == 0 && r.drained &&
		quantile(r.lat, 0.99) <= ms(gwP99Limit) && quantile(r.late, 0.99) <= ms(gwLateLimit)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runRung drives one rung, waits until its deliveries are in or the
// delivery timeout has passed since its last due time, and evaluates it.
// Connections the gateway closed during the rung are reconnected.
func (g *gwRun) runRung(r *gwRung) rungResult {
	res := rungResult{name: r.name, rate: r.rate, traced: r.traced, ops: len(r.ops)}
	start := nowNs() + int64(time.Millisecond)
	var wg sync.WaitGroup
	var errs [gwConns]error
	for _, k := range g.conns {
		wg.Add(1)
		go func(k *gwConn) {
			defer wg.Done()
			errs[k.id] = g.generate(k, r, start)
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && res.sendErr == nil {
			res.sendErr = err
		}
	}
	last := start
	for i := range r.ops {
		last = max(last, r.due[i])
	}
	want := r.expected()
	for r.got.Load() < want && nowNs() < last+int64(gwTimeout) {
		time.Sleep(time.Millisecond)
	}
	res.drained = r.got.Load() >= want
	for i := range r.ops {
		op := &r.ops[i]
		due := r.due[i]
		res.attempted += len(r.owed(i))
		if op.kind == gateway.OpAdd {
			res.adds++
		}
		if due == 0 { // never sent: its connection had died
			res.failed += len(r.owed(i))
			continue
		}
		res.late = append(res.late, ms(time.Duration(r.sent[i]-due)))
		for _, to := range r.owed(i) {
			a := r.arrival[to][i].Load()
			if a == 0 || a-due > int64(gwTimeout) {
				res.failed++
				continue
			}
			if to != op.conn {
				continue
			}
			res.lat = append(res.lat, ms(time.Duration(a-due)))
			if r.traced {
				g.conns[to].rec.endRoot(catOp, span{ID: r.spanID | uint64(i), Name: catNames[catOp], Proc: to, Start: due}, a)
			}
		}
		if op.kind == gateway.OpAdd {
			a0, a1 := r.arrival[0][i].Load(), r.arrival[1][i].Load()
			if a0 != 0 && a1 != 0 {
				res.skew = append(res.skew, ms(time.Duration(max(a0-a1, a1-a0))))
			}
		}
	}
	g.retire(r)
	for _, k := range g.conns {
		if k.dead {
			if err := g.reconnect(k); err != nil {
				g.wrongf("reconnect after slow-client close: %v", err)
			}
		}
	}
	return res
}

// retire forgets the delta keys of the rung before r, so the key table
// holds two rungs at most. A delta still arriving for a forgotten op
// (later than the delivery timeout, so already counted as failed) is
// recognized by its value: no larger than the cell's retired maximum.
func (g *gwRun) retire(r *gwRung) {
	old := g.prev
	g.prev = r
	if old == nil {
		return
	}
	g.keysMu.Lock()
	defer g.keysMu.Unlock()
	for i := range old.ops {
		op := &old.ops[i]
		if op.kind != gateway.OpAdd {
			continue
		}
		k := deltaKey{op.room, op.cell, op.value}
		if g.keys[k].r == old {
			delete(g.keys, k)
		}
		g.retired[op.room][op.cell] = max(g.retired[op.room][op.cell], op.value)
	}
}

// gwClosedWindow is how many of its own ops each connection keeps in
// flight in the capacity phase. Every op in flight owes each session at
// most one frame, so a session's 64-frame send queue never holds more
// than 2×30: the phase measures throughput without tripping the
// slow-client policy.
const gwClosedWindow = 30

// runClosed drives both connections closed loop for d and returns how
// many adds had their deltas back at every session, and the latency of
// each op from its send to the sender's own delivery. With shared
// false, each connection keeps window ops in flight; with shared true,
// the two connections share the window, so with a window of one the
// run is a ping-pong: an op is sent only when every delivery of the
// previous one is in. Ops are scheduled in chunks until the time is up.
func (g *gwRun) runClosed(name string, d time.Duration, window int, shared bool) (int64, rungResult) {
	var tokens [gwConns]chan struct{}
	pools := []chan struct{}{}
	for c := range tokens {
		if shared && c > 0 {
			tokens[c] = tokens[0]
			continue
		}
		tokens[c] = make(chan struct{}, window)
		pools = append(pools, tokens[c])
	}
	refill := func() {
		for _, w := range pools {
			for n := 0; n < window; n++ {
				select {
				case w <- struct{}{}:
				default:
				}
			}
		}
	}
	refill()
	res := rungResult{name: name}
	deadline := nowNs() + int64(d)
	var adds int64
	for nowNs() < deadline {
		r := g.newRung(name, 100000, 100*time.Millisecond, false)
		r.window = tokens
		r.left = make([]atomic.Int32, len(r.ops))
		for i := range r.left {
			r.left[i].Store(int32(len(r.owed(i))))
		}
		var wg sync.WaitGroup
		var errs [gwConns]error
		for _, k := range g.conns {
			wg.Add(1)
			go func(k *gwConn) {
				defer wg.Done()
				errs[k.id] = g.generateClosed(k, r, deadline)
			}(k)
		}
		wg.Wait()
		// Wait for the chunk's last deliveries (every token back), then
		// refill the windows for the next chunk. A token returned after
		// the timeout finds its window full and is dropped.
		timeout := time.After(gwTimeout)
	drain:
		for _, w := range pools {
			for n := 0; n < window; n++ {
				select {
				case <-w:
				case <-timeout:
					break drain
				}
			}
		}
		refill()
		for i := range r.ops {
			op := &r.ops[i]
			if r.due[i] == 0 { // not sent: the time was up
				if op.kind == gateway.OpAdd {
					g.believed[op.room][op.cell] -= op.delta
				}
				continue
			}
			for _, to := range r.owed(i) {
				res.attempted++
				a := r.arrival[to][i].Load()
				switch {
				case a == 0:
					res.failed++
				case to == op.conn:
					res.lat = append(res.lat, ms(time.Duration(a-r.due[i])))
					if op.kind == gateway.OpAdd {
						adds++
					}
				}
			}
		}
		g.retire(r)
		for _, err := range errs {
			if err != nil && res.sendErr == nil {
				res.sendErr = err
			}
		}
		if res.sendErr != nil {
			break
		}
	}
	for _, k := range g.conns {
		if k.dead {
			if err := g.reconnect(k); err != nil {
				g.wrongf("reconnect after slow-client close: %v", err)
			}
		}
	}
	return adds, res
}

// generateClosed sends connection k's ops of r as window tokens allow,
// until the deadline.
func (g *gwRun) generateClosed(k *gwConn, r *gwRung, deadline int64) error {
	t := time.NewTimer(gwTimeout)
	defer t.Stop()
	for _, i := range r.byConn[k.id] {
		if nowNs() >= deadline {
			return nil
		}
		t.Reset(gwTimeout)
		select {
		case <-r.window[k.id]:
		case <-t.C: // a delivery was lost; go on with one token fewer
		}
		r.due[i] = nowNs()
		r.sent[i] = r.due[i]
		if err := k.send(g.rooms, r, i); err != nil {
			k.dead = true
			return fmt.Errorf("conn %d: send: %w", k.id, err)
		}
	}
	return nil
}

// bringUp starts a gateway, serves it on a loopback listener, dials the
// connections, joins every room with each and starts the receivers.
func (g *gwRun) bringUp() error {
	gw, err := gateway.New(gateway.Config{})
	if err != nil {
		return fmt.Errorf("new gateway: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		return fmt.Errorf("listen: %w", err)
	}
	g.srv = gw.Serve(ln)
	g.gw, g.addr = gw, g.srv.Addr()
	for c := range g.conns {
		k, err := g.connect(c)
		if err != nil {
			g.tearDown()
			return err
		}
		g.conns[c] = k
	}
	for _, k := range g.conns {
		g.start(k)
	}
	return nil
}

// tearDown closes the connections, waits for their receivers, and shuts
// the gateway down.
func (g *gwRun) tearDown() error {
	for i, k := range g.conns {
		if k != nil {
			k.c.Close()
			k.recv.Wait()
			g.conns[i] = nil
		}
	}
	g.srv.Close()
	return g.gw.Close()
}

// gwTotals accumulates a run's measurements over its gateway instances.
type gwTotals struct {
	setups            []float64 // s, per setUps bring-up
	p50, untracedP50  []float64 // ms, per reference window
	caps              []float64 // adds per CPU-second, per capacity burst
	ping              []float64 // ms, median latency per ping-pong phase
	pingAtt, pingFail int
	sweepMax          []float64 // adds/s, per ladder sweep
	ref               rungResult
	ops, adds         float64 // traced rungs
	overAtt, overFail float64 // traced rungs above the reference rate
	stats             trace.GateSnapshot
	log               spanLog
}

func (t *gwTotals) add(res rungResult, plan gwPlan) {
	if res.name == "ref" {
		t.ref.attempted += res.attempted
		t.ref.failed += res.failed
		t.ref.lat = append(t.ref.lat, res.lat...)
		t.ref.late = append(t.ref.late, res.late...)
		t.ref.skew = append(t.ref.skew, res.skew...)
	}
	if res.traced {
		t.ops += float64(res.ops)
		t.adds += float64(res.adds)
		if res.rate > plan.refRate {
			t.overAtt += float64(res.attempted)
			t.overFail += float64(res.failed)
		}
	}
}

// instance brings up a fresh gateway, runs body on it, checks the final
// room states and tears it down. It reports false when the gateway
// could not be brought up.
func (t *gwTotals) instance(seed int64, plan gwPlan, traced bool, out *outcome, hooks gwHooks, body func(g *gwRun, run func(*gwRung) rungResult)) bool {
	g := newGwRun(seed, plan, hooks)
	if err := g.bringUp(); err != nil {
		out.correct = false
		out.attempted++
		out.failed++
		out.notef("gateway bring-up: %v", err)
		return false
	}
	if traced {
		for _, k := range g.conns {
			k.rec = newRecorder(k.id)
			t.log.add(k.rec)
		}
	}
	run := func(r *gwRung) rungResult {
		res := g.runRung(r)
		t.add(res, plan)
		if res.sendErr != nil {
			out.notef("rung %s %.0f/s: %v", r.name, r.rate, res.sendErr)
		}
		return res
	}
	run(g.newRung("warm", plan.refRate, plan.window/4, false))
	body(g, run)
	fin := g.runRung(g.finalRung())
	stats := g.gw.Stats().Snapshot()
	t.stats.FramesOut += stats.FramesOut
	t.stats.SendQueueDrops += stats.SendQueueDrops
	t.stats.SlowClients += stats.SlowClients
	t.stats.OpsDropped += stats.OpsDropped
	t.stats.SendQueueHighWater = max(t.stats.SendQueueHighWater, stats.SendQueueHighWater)
	t.stats.OpQueueHighWater = max(t.stats.OpQueueHighWater, stats.OpQueueHighWater)
	if err := g.tearDown(); err != nil {
		out.notef("gateway close: %v", err)
	}
	close(g.notes)
	for n := range g.notes {
		out.notef("%s", n)
	}
	if n := g.wrong.Load(); n > 0 {
		out.correct = false
		out.notef("%d events were unexpected or carried wrong values", n)
	}
	if fin.failed > 0 {
		out.correct = false
		out.notef("final state check: %d of %d room states missing or wrong", fin.failed, fin.attempted)
	}
	return true
}

// runGateway runs the gateway workload for seconds. It first brings
// gateways up and down gwSetups times for setup_s. Then rounds run on
// fresh gateway instances, each with a short warm-up, one open-loop
// reference window (a traced run: an untraced and a traced one), and
// the final state check. In an
// untraced run, the rounds take all the time, and each adds two
// closed-loop phases: a ping-pong (time_ms) and a capacity
// burst (rate_per_s). A traced run spends 55% of the time on rounds and
// the rest on ladder sweeps on one more gateway.
func runGateway(seed int64, plan gwPlan, seconds float64, traced bool, out *outcome, hooks gwHooks) {
	s := time.Duration(seconds * float64(time.Second))
	t := &gwTotals{}
	procBefore := readProc()
	if !t.setUps(seed, plan, out, hooks) {
		return
	}
	end := time.Now().Add(s)
	if traced {
		end = time.Now().Add(s * 11 / 20)
	}
	for i := int64(0); len(t.p50) == 0 || time.Now().Before(end); i++ {
		ok := t.instance(seed*1000+i, plan, traced, out, hooks, func(g *gwRun, run func(*gwRung) rungResult) {
			if traced {
				res := run(g.newRung("ref-untraced", plan.refRate, plan.window, false))
				t.untracedP50 = append(t.untracedP50, median(res.lat))
			}
			res := run(g.newRung("ref", plan.refRate, plan.window, traced))
			t.p50 = append(t.p50, median(res.lat))
			if !traced {
				t.closedPhases(g, plan, out)
			}
		})
		if !ok {
			return
		}
	}
	if traced {
		end = time.Now().Add(s * 2 / 5)
		ok := t.instance(seed*1000-1, plan, traced, out, hooks, func(g *gwRun, run func(*gwRung) rungResult) {
			for len(t.sweepMax) == 0 || time.Now().Before(end) {
				best := 0.0
				for _, rate := range plan.ladder {
					res := run(g.newRung("ladder", rate, plan.rung, traced))
					if res.pass() {
						best = rate
					}
					if res.failed > 0 {
						break // loss: climbing further only drives sessions into slow-client closes
					}
				}
				t.sweepMax = append(t.sweepMax, best)
			}
		})
		if !ok {
			return
		}
	}
	procDelta := readProc().sub(procBefore)
	ref := t.ref
	out.attempted, out.failed = ref.attempted+t.pingAtt, ref.failed+t.pingFail
	if !traced {
		fmt.Fprintf(os.Stderr, "gateway: %d instances; reference p50 %.3f ms p99 %.3f ms; ping-pong %.4f ms\n",
			len(t.p50), median(ref.lat), quantile(ref.lat, 0.99), median(t.ping))
		out.add(metric{"setup_s", "s", median(t.setups), len(t.setups)})
		out.add(metric{"time_ms", "ms", median(t.ping), len(t.ping)})
		out.add(metric{"rate_per_s", "1/s", median(t.caps), len(t.caps)})
		out.add(metric{"rss_peak_mb", "MB", peakRSSMB(), 1})
		out.detail("gateway.lat_p50_ms", "ms", median(t.p50), len(t.p50))
		out.detail("gateway.lat_p99_ms", "ms", quantile(ref.lat, 0.99), len(ref.lat))
		return
	}
	fmt.Fprintf(os.Stderr, "gateway: %d instances; reference p50 %.3f ms p99 %.3f ms; rate max %.0f adds/s\n",
		len(t.p50), median(ref.lat), quantile(ref.lat, 0.99), median(t.sweepMax))
	st := t.stats
	hists := t.log.hists()
	n := int(t.ops)
	out.add(metric{"gateway.frames_out_per_add", "count", ratio(float64(st.FramesOut), t.adds), int(t.adds)})
	out.add(metric{"gateway.send_queue_drops", "count", float64(st.SendQueueDrops), n})
	out.add(metric{"gateway.slow_clients", "count", float64(st.SlowClients), n})
	out.add(metric{"gateway.ops_dropped", "count", float64(st.OpsDropped), n})
	out.add(metric{"gateway.send_queue_hwm", "count", float64(st.SendQueueHighWater), len(t.p50)})
	out.add(metric{"gateway.op_queue_hwm", "count", float64(st.OpQueueHighWater), len(t.p50)})
	out.add(metric{"gateway.fanout_skew_ms_p99", "ms", quantile(ref.skew, 0.99), len(ref.skew)})
	out.add(metric{"gateway.client_send_us_p50", "us", hists[catSend].quantile(0.5) / 1e3, int(hists[catSend].n)})
	out.add(metric{"gateway.lat_p50_ms", "ms", median(t.untracedP50), len(t.untracedP50)})
	out.add(metric{"gateway.lat_p99_ms", "ms", quantile(ref.lat, 0.99), len(ref.lat)})
	out.add(metric{"gateway.rate_max", "1/s", median(t.sweepMax), len(t.sweepMax)})
	out.add(metric{"gateway.overload_fail_ratio", "ratio", ratio(t.overFail, t.overAtt), int(t.overAtt)})
	out.add(metric{"loadgen.late_ms_p99", "ms", quantile(ref.late, 0.99), len(ref.late)})
	for _, m := range procMetrics(procDelta, t.ops) {
		out.add(m)
	}
	out.add(metric{"bench.trace_overhead", "ratio", ratio(median(t.p50), median(t.untracedP50)), len(t.p50)})
	out.spans = &t.log
}

// gwSetups is how many gateways a run brings up and tears down for
// setup_s before its rounds.
const gwSetups = 20

// setUps times gwSetups bring-ups, each of a fresh gateway. Each
// starts right after a garbage collection: a bring-up allocates so much
// that otherwise every other one paid for a collection, and the median
// jumped between the two kinds. It reports false when a gateway could
// not be brought up.
func (t *gwTotals) setUps(seed int64, plan gwPlan, out *outcome, hooks gwHooks) bool {
	for i := int64(0); i < gwSetups; i++ {
		g := newGwRun(seed*1000+500+i, plan, hooks)
		runtime.GC()
		start := time.Now()
		if err := g.bringUp(); err != nil {
			out.correct = false
			out.attempted++
			out.failed++
			out.notef("gateway bring-up: %v", err)
			return false
		}
		t.setups = append(t.setups, time.Since(start).Seconds())
		if err := g.tearDown(); err != nil {
			out.notef("gateway close: %v", err)
		}
	}
	return true
}

// closedPhases runs a round's two closed-loop phases. The ping-pong
// keeps one op in flight for a reference window: each op's latency runs
// from its send to the sender's own delivery, and the round's median is
// one time_ms sample. Its deliveries count toward attempted and failed.
// The capacity burst keeps gwClosedWindow ops per connection in flight
// for a reference window and gives adds per CPU-second.
func (t *gwTotals) closedPhases(g *gwRun, plan gwPlan, out *outcome) {
	_, ping := g.runClosed("ping", plan.window, 1, true)
	t.ping = append(t.ping, median(ping.lat))
	t.pingAtt += ping.attempted
	t.pingFail += ping.failed
	before := readProc()
	adds, burst := g.runClosed("capacity", plan.window, gwClosedWindow, false)
	t.caps = append(t.caps, ratio(float64(adds), readProc().sub(before).cpu.Seconds()))
	for _, res := range []rungResult{ping, burst} {
		if res.sendErr != nil {
			out.notef("%s: %v", res.name, res.sendErr)
		}
	}
}
