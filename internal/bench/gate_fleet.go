package bench

// The gate benchmark's session fleet: the thing that holds Sessions
// live websocket clients through the load phases. Two implementations —
// in-process for tests and small runs, and worker subprocesses for the
// 10k-class runs where one process cannot hold both ends of every
// loopback socket under the RLIMIT_NOFILE hard limit. The parent and
// its workers speak a line protocol over stdin/stdout:
// the worker prints "ready" once every session is joined, the parent
// says "adds", the worker fires them and prints "sent"; the parent may
// then say "deltas" any number of times, and the worker answers
// "deltas" followed by each session's delta count; the parent says
// "close", the worker disconnects everything and prints "closed".

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/acedsm/ace/internal/gateway"
)

// sessionFleet is the load-phase driver: all sessions joined, all adds
// fired, every session's delivered deltas counted, all sessions closed.
type sessionFleet interface {
	join() error
	adds() error
	deltas() ([]uint64, error) // EvDelta frames each session has read so far, by global id
	close() error
	shutdown() // best-effort cleanup on any exit path
}

func newFleet(cfg GateConfig, addr string) (sessionFleet, error) {
	if cfg.Workers > 0 && len(cfg.WorkerExec) > 0 {
		return newWorkerFleet(cfg, addr)
	}
	return newLocalFleet(addr, 0, cfg.Sessions, cfg.Rooms, cfg.Adds), nil
}

// gateRoom names session i's room; the formula is shared by the parent
// (for expected sums) and every worker.
func gateRoom(i, rooms int) string { return fmt.Sprintf("gate-%d", i%rooms) }

// localFleet runs count sessions, global ids [offset, offset+count), in
// this process. Once joined, each session has a reader goroutine that
// consumes its events and counts the deltas, as a live client would.
type localFleet struct {
	addr                 string
	offset, rooms, nadds int
	clients              []*gateway.Client
	got                  []atomic.Uint64 // EvDelta frames read, per session
	readers              sync.WaitGroup
}

func newLocalFleet(addr string, offset, count, rooms, adds int) *localFleet {
	return &localFleet{addr: addr, offset: offset, rooms: rooms, nadds: adds,
		clients: make([]*gateway.Client, count), got: make([]atomic.Uint64, count)}
}

func (f *localFleet) join() error {
	return forEach(len(f.clients), 256, func(i int) error {
		id := f.offset + i
		c, err := gateway.DialClient(f.addr)
		if err != nil {
			return fmt.Errorf("dial %d: %w", id, err)
		}
		f.clients[i] = c
		c.SetDeadline(time.Now().Add(120 * time.Second))
		if _, _, err := c.Join(gateRoom(id, f.rooms)); err != nil {
			return fmt.Errorf("join %d: %w", id, err)
		}
		f.readers.Add(1)
		go f.read(c, &f.got[i])
		return nil
	})
}

// read counts c's deltas into got until its connection closes or its
// deadline passes; a count that stops short shows up in the accounting.
func (f *localFleet) read(c *gateway.Client, got *atomic.Uint64) {
	defer f.readers.Done()
	for {
		ev, err := c.Recv()
		if err != nil {
			return
		}
		if ev.Kind == gateway.EvDelta {
			got.Add(1)
		}
	}
}

func (f *localFleet) adds() error {
	return forEach(len(f.clients), 256, func(i int) error {
		id := f.offset + i
		c := f.clients[i]
		c.SetDeadline(time.Now().Add(120 * time.Second))
		cell := id % gateway.RoomCells
		for k := 0; k < f.nadds; k++ {
			if err := c.Add(gateRoom(id, f.rooms), cell, int64(id+1)); err != nil {
				return fmt.Errorf("add %d: %w", id, err)
			}
		}
		return nil
	})
}

func (f *localFleet) deltas() ([]uint64, error) {
	out := make([]uint64, len(f.got))
	for i := range f.got {
		out[i] = f.got[i].Load()
	}
	return out, nil
}

func (f *localFleet) close() error {
	forEach(len(f.clients), 256, func(i int) error {
		if f.clients[i] != nil {
			f.clients[i].Close()
			f.clients[i] = nil
		}
		return nil
	})
	f.readers.Wait()
	return nil
}

func (f *localFleet) shutdown() { f.close() }

// GateWorkerArgs is the CLI contract between the worker fleet and the
// binary hosting RunGateWorker (cmd/acebench): the argv appended to
// GateConfig.WorkerExec to launch one worker owning count sessions
// with global ids [offset, offset+count).
func GateWorkerArgs(addr string, offset, count, rooms, adds int) []string {
	return []string{
		"-gate-worker",
		"-gate-addr", addr,
		"-gate-offset", strconv.Itoa(offset),
		"-gate-sessions", strconv.Itoa(count),
		"-gate-rooms", strconv.Itoa(rooms),
		"-gate-adds", strconv.Itoa(adds),
	}
}

// workerFleet drives Worker subprocesses, each owning a contiguous
// slice of the global session ids.
type workerFleet struct {
	cmds []*exec.Cmd
	in   []io.WriteCloser
	out  []*bufio.Scanner
	done bool
}

func newWorkerFleet(cfg GateConfig, addr string) (*workerFleet, error) {
	f := &workerFleet{}
	per, rem := cfg.Sessions/cfg.Workers, cfg.Sessions%cfg.Workers
	offset := 0
	for w := 0; w < cfg.Workers; w++ {
		count := per
		if w < rem {
			count++
		}
		args := append(append([]string{}, cfg.WorkerExec[1:]...),
			GateWorkerArgs(addr, offset, count, cfg.Rooms, cfg.Adds)...)
		cmd := exec.Command(cfg.WorkerExec[0], args...)
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			f.shutdown()
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			f.shutdown()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			f.shutdown()
			return nil, fmt.Errorf("gate worker %d: %w", w, err)
		}
		f.cmds = append(f.cmds, cmd)
		f.in = append(f.in, stdin)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(nil, 64<<20) // a deltas reply carries one count per session
		f.out = append(f.out, sc)
		offset += count
	}
	return f, nil
}

// line reads worker w's next reply, which must start with tok; anything
// else (a worker's error line, or its death) fails the phase. It
// returns the words after tok.
func (f *workerFleet) line(w int, tok string) ([]string, error) {
	sc := f.out[w]
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("gate worker %d: %w", w, err)
		}
		return nil, fmt.Errorf("gate worker %d exited before %q", w, tok)
	}
	words := strings.Fields(sc.Text())
	if len(words) == 0 || words[0] != tok {
		return nil, fmt.Errorf("gate worker %d: %s", w, sc.Text())
	}
	return words[1:], nil
}

// expect reads one reply from every worker and requires it to be tok.
func (f *workerFleet) expect(tok string) error {
	for w := range f.out {
		if _, err := f.line(w, tok); err != nil {
			return err
		}
	}
	return nil
}

func (f *workerFleet) send(tok string) error {
	for w, in := range f.in {
		if _, err := io.WriteString(in, tok+"\n"); err != nil {
			return fmt.Errorf("gate worker %d: %w", w, err)
		}
	}
	return nil
}

func (f *workerFleet) join() error { return f.expect("ready") }

func (f *workerFleet) adds() error {
	if err := f.send("adds"); err != nil {
		return err
	}
	return f.expect("sent")
}

// deltas asks every worker for its sessions' counts; workers own
// ascending id ranges, so concatenating the replies orders by global id.
func (f *workerFleet) deltas() ([]uint64, error) {
	if err := f.send("deltas"); err != nil {
		return nil, err
	}
	var out []uint64
	for w := range f.out {
		words, err := f.line(w, "deltas")
		if err != nil {
			return nil, err
		}
		for _, word := range words {
			n, err := strconv.ParseUint(word, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("gate worker %d: bad delta count %q", w, word)
			}
			out = append(out, n)
		}
	}
	return out, nil
}

func (f *workerFleet) close() error {
	if err := f.send("close"); err != nil {
		return err
	}
	if err := f.expect("closed"); err != nil {
		return err
	}
	f.done = true
	for w, cmd := range f.cmds {
		if err := cmd.Wait(); err != nil {
			return fmt.Errorf("gate worker %d: %w", w, err)
		}
	}
	return nil
}

func (f *workerFleet) shutdown() {
	if f.done {
		return
	}
	for _, in := range f.in {
		in.Close()
	}
	for _, cmd := range f.cmds {
		if cmd.Process != nil {
			cmd.Process.Kill()
		}
		cmd.Wait()
	}
	f.done = true
}

// RunGateWorker is the worker-subprocess half of the gate benchmark's
// load phase: it owns count sessions with global ids [offset,
// offset+count), joins them all, then follows the parent's line
// protocol on stdin. Phase results go to stdout; errors are reported
// as an "error: ..." line so the parent's expect names them.
func RunGateWorker(addr string, offset, count, rooms, adds int) error {
	raiseNoFile(uint64(count) + 1024)
	f := newLocalFleet(addr, offset, count, rooms, adds)
	defer f.close()
	fail := func(err error) error {
		fmt.Printf("error: %v\n", err)
		return err
	}
	if err := f.join(); err != nil {
		return fail(err)
	}
	fmt.Println("ready")
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		switch sc.Text() {
		case "adds":
			if err := f.adds(); err != nil {
				return fail(err)
			}
			fmt.Println("sent")
		case "deltas":
			got, _ := f.deltas() // local counts cannot fail
			var b strings.Builder
			b.WriteString("deltas")
			for _, n := range got {
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(n, 10))
			}
			fmt.Println(b.String())
		case "close":
			f.close()
			fmt.Println("closed")
			return nil
		default:
			return fail(fmt.Errorf("unknown command %q", sc.Text()))
		}
	}
	return fail(fmt.Errorf("parent went away: %v", sc.Err()))
}
