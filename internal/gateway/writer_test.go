package gateway

import (
	"bufio"
	"net"
	"testing"
	"time"
)

// pipeSession connects a fresh session of g to a scripted client over an
// in-memory pipe. The pipe has no buffer, so a writer blocked in a write
// stays mid-batch until the client reads on: the tests can act while a
// batch is half on the wire.
func pipeSession(t *testing.T, g *Gateway) (*session, *Client) {
	t.Helper()
	srvEnd, cliEnd := net.Pipe()
	s := g.newSession(&wsConn{conn: srvEnd, br: bufio.NewReader(srvEnd), bw: bufio.NewWriter(srvEnd)})
	c := &Client{ws: &wsConn{conn: cliEnd, br: bufio.NewReader(cliEnd), bw: bufio.NewWriter(cliEnd), client: true}}
	c.SetDeadline(time.Now().Add(30 * time.Second))
	t.Cleanup(func() {
		s.closeSession()
		cliEnd.Close()
	})
	return s, c
}

// runWriter starts the session's writer; the returned channel closes
// when the writer has exited.
func runWriter(s *session) <-chan struct{} {
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		s.writeLoop()
	}()
	return exited
}

// queueStates fills the session's send queue with one EvState frame per
// slot, cell 0 carrying the frame's index. At 530 bytes each, a full
// queue spans several bufio buffers, so one batch takes several writes.
func queueStates(t *testing.T, s *session) int {
	t.Helper()
	k := cap(s.out)
	for i := 0; i < k; i++ {
		state := make([]int64, RoomCells)
		state[0] = int64(i)
		s.sendFrame(Frame{Kind: EvState, Room: "w", State: state})
	}
	if len(s.out) != k {
		t.Fatalf("queued %d frames, want %d", len(s.out), k)
	}
	return k
}

// expectState reads the next message and checks it is frame i of
// queueStates.
func expectState(t *testing.T, c *Client, i int) {
	t.Helper()
	f, err := c.Recv()
	if err != nil {
		t.Fatalf("frame %d: %v", i, err)
	}
	if f.Kind != EvState || f.Room != "w" || f.State[0] != int64(i) {
		t.Fatalf("frame %d: got kind %#x room %q cell0 %v", i, f.Kind, f.Room, f.State)
	}
}

// TestWriterOneFlushPerDrain: frames queued before the writer runs go out
// intact, in order, and with a single flush.
func TestWriterOneFlushPerDrain(t *testing.T) {
	g := &Gateway{cfg: Config{}.withDefaults()}
	s, c := pipeSession(t, g)
	k := queueStates(t, s)
	exited := runWriter(s)
	for i := 0; i < k; i++ {
		expectState(t, c, i)
	}
	s.closeSession()
	<-exited
	st := g.Stats().Snapshot()
	if st.FramesOut != uint64(k) || st.Flushes != 1 {
		t.Fatalf("frames out %d flushes %d, want %d frames in 1 flush", st.FramesOut, st.Flushes, k)
	}
}

// TestWriterPongDuringBurst: a ping that arrives while the writer is
// mid-batch is answered, and its pong lands after the whole batch —
// never inside a frame or between two frames of one drain.
func TestWriterPongDuringBurst(t *testing.T) {
	g, _ := startGateway(t, Config{Procs: 2})
	s, c := pipeSession(t, g)
	k := queueStates(t, s)
	exited := runWriter(s)
	go s.readLoop()

	expectState(t, c, 0) // the writer is now blocked mid-batch on the pipe
	ping := []byte("burst-ping")
	if err := c.ws.writeControl(wsPing, ping); err != nil {
		t.Fatalf("ping: %v", err)
	}
	for i := 1; i < k; i++ {
		expectState(t, c, i)
	}
	opcode, _, payload, err := c.ws.readFrame()
	if err != nil {
		t.Fatalf("reading pong: %v", err)
	}
	if opcode != wsPong || string(payload) != string(ping) {
		t.Fatalf("after the batch got opcode %#x payload %q, want pong %q", opcode, payload, ping)
	}
	c.Close()
	<-exited
	waitFor(t, "disconnect", func() bool { return g.Stats().SessionsClosed.Load() == 1 })
}

// TestWriterClientGoneMidBatch: a client that disconnects while a batch
// is half written ends the writer on its write error, without a panic,
// and the session's disconnect is filed.
func TestWriterClientGoneMidBatch(t *testing.T) {
	g, _ := startGateway(t, Config{Procs: 2})
	s, c := pipeSession(t, g)
	queueStates(t, s)
	exited := runWriter(s)
	go s.readLoop()

	expectState(t, c, 0)
	c.ws.conn.Close()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("writer still running after its client went away")
	}
	if !s.isClosed() {
		t.Fatal("session not closed after a failed batch")
	}
	waitFor(t, "disconnect", func() bool { return g.Stats().SessionsClosed.Load() == 1 })
	if f := g.Stats().Flushes.Load(); f != 0 {
		t.Fatalf("flushes %d, want 0: the only batch failed", f)
	}
}
