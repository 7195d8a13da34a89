package amnet

import (
	"fmt"
	"sync"

	"github.com/acedsm/ace/internal/trace"
)

// Inbox is the receive side of one node's attachment, shared by every
// fabric: the handler table, one mailbox per dispatch lane, and the
// batched pumps that drain them. A transport's endpoint embeds it and
// feeds it with Push; everything past Push — lane keying, batching,
// delivery accounting, handler lookup — is the same code on every
// fabric, so the Active Messages receive contract (per-sender FIFO,
// unbounded mailboxes, handlers that never block the fabric) is
// implemented once.
type Inbox struct {
	boxes    []*mailbox
	handlers [MaxHandlers]Handler
	header   int // accounted fixed cost per delivered message
	stats    *trace.NetStats
}

// NewInbox builds the receive side for one node of a nodes-node
// fabric. lanes is the configured dispatch lane count (0 or 1 is a
// single pump; values above nodes are clamped, extra lanes could never
// receive traffic). header is the transport's per-message header size,
// added to each payload length in the receive byte counters, and stats
// is the endpoint's counter block.
func NewInbox(lanes, nodes, header int, stats *trace.NetStats) *Inbox {
	if lanes > nodes {
		lanes = nodes
	}
	if lanes < 1 {
		lanes = 1
	}
	in := &Inbox{boxes: make([]*mailbox, lanes), header: header, stats: stats}
	for l := range in.boxes {
		in.boxes[l] = newMailbox()
	}
	return in
}

// Register installs fn as the handler for id (see Endpoint.Register).
func (in *Inbox) Register(id HandlerID, fn Handler) {
	if int(id) >= MaxHandlers {
		panic(fmt.Sprintf("amnet: handler id %d out of range", id))
	}
	in.handlers[id] = fn
}

// Push queues m for dispatch in the lane of its source node; sent is the
// sender's trace-clock stamp (0 when latency sampling is off). Keying by
// source keeps everything one sender emits in one FIFO lane. Push never
// blocks. It returns the lane's pending depth, so a producer can yield
// when the pump falls far behind; after Close it recycles the payload
// and returns 0.
func (in *Inbox) Push(m Msg, sent int64) int {
	return in.boxes[uint32(m.Src)%uint32(len(in.boxes))].push(item{msg: m, sent: sent})
}

// Start launches one pump goroutine per lane, tracked by wg. Each pump
// first waits for gate to close (nil: no gate), so a transport can hold
// dispatch back until handler registration is done.
func (in *Inbox) Start(wg *sync.WaitGroup, gate <-chan struct{}) {
	for _, box := range in.boxes {
		wg.Add(1)
		go in.pump(wg, box, gate)
	}
}

// Close closes every lane: the pumps deliver what is already queued and
// exit, and later pushes are dropped.
func (in *Inbox) Close() {
	for _, box := range in.boxes {
		box.close()
	}
}

// pump drains one lane in batches and dispatches its handlers one at a
// time: one lock/wake per burst instead of per message. With a single
// lane this serializes all handlers on the node; with sharding it
// serializes each sender's handlers while different lanes run in
// parallel.
func (in *Inbox) pump(wg *sync.WaitGroup, box *mailbox, gate <-chan struct{}) {
	defer wg.Done()
	if gate != nil {
		<-gate
	}
	var scratch []item
	for {
		batch, ok := box.popAll(scratch)
		if !ok {
			return
		}
		for i := range batch {
			in.deliver(&batch[i])
			batch[i] = item{} // drop payload references promptly
		}
		scratch = batch
	}
}

func (in *Inbox) deliver(it *item) {
	in.stats.ObserveDeliver(it.sent)
	m := it.msg
	in.stats.CountRecv(uint16(m.Handler), in.header+len(m.Payload))
	h := in.handlers[m.Handler]
	if h == nil {
		panic(fmt.Sprintf("amnet: node %d: no handler %d registered (msg from %d)", m.Dst, m.Handler, m.Src))
	}
	h(m)
}

// item is a queued message plus, when latency sampling is on, its send
// stamp on the trace clock.
type item struct {
	msg  Msg
	sent int64
}

// mailbox is an unbounded MPSC queue: many senders, one pump.
// Unboundedness is load-bearing — see the package comment. The pump
// drains in batches: popAll swaps the whole pending slice out under one
// lock acquisition, so a burst of n messages costs the consumer one
// lock/wake instead of n.
type mailbox struct {
	mu     sync.Mutex
	q      []item
	closed bool

	// notify holds one token when items may be pending. push stores the
	// token after appending; the consumer re-checks the queue after
	// taking it, so a wakeup is never lost (at most one is spurious).
	notify chan struct{}
	// done is closed by close(); it wakes the consumer permanently.
	done chan struct{}
}

func newMailbox() *mailbox {
	return &mailbox{
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
}

// push appends it and returns the pending depth. A push after close
// recycles the payload — the sender gave it up at Send — and returns 0.
func (b *mailbox) push(it item) int {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		Recycle(it.msg.Payload)
		return 0
	}
	b.q = append(b.q, it)
	n := len(b.q)
	b.mu.Unlock()
	select {
	case b.notify <- struct{}{}:
	default:
	}
	return n
}

// popAll blocks until at least one item is pending, then swaps the whole
// pending slice with `into` (reset to length zero) and returns it. It
// reports ok=false only when the mailbox is closed and fully drained.
// The caller owns the returned slice until it passes it back in.
func (b *mailbox) popAll(into []item) (batch []item, ok bool) {
	for {
		b.mu.Lock()
		if len(b.q) > 0 {
			batch = b.q
			b.q = into[:0]
			b.mu.Unlock()
			return batch, true
		}
		closed := b.closed
		b.mu.Unlock()
		if closed {
			return into[:0], false
		}
		select {
		case <-b.notify:
		case <-b.done:
		}
	}
}

// close marks the mailbox closed and wakes the consumer. Items already
// queued remain poppable (close-then-drain semantics).
func (b *mailbox) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.done)
}
