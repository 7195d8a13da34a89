// Package amnet provides the Active Messages fabric that the Ace and CRL
// runtimes are built on.
//
// The model follows von Eicken et al.'s Active Messages: a message names a
// handler on the destination node; the handler runs asynchronously to the
// destination's compute thread, may examine the message and send further
// messages (for example a reply), but must never block waiting for network
// events. By default each node owns a single dispatch pump goroutine that
// drains its mailbox and runs handlers one at a time, so handlers on a
// given node are serialized with respect to each other. Transports may
// shard dispatch into multiple lanes keyed by source node (see
// ChanConfig.Lanes): all traffic from one sender still lands in one lane
// and is dispatched in order by one goroutine, preserving the
// per-(sender, handler) FIFO contract, but handlers for messages from
// different senders may then run concurrently — handler code relying on
// whole-node serialization must take lane count 1 or lock its state.
//
// Mailboxes are unbounded, which preserves the classic Active Messages
// liveness argument: a send never blocks, so a handler can always complete,
// so every mailbox is eventually drained. The pump drains the mailbox in
// batches (one lock acquisition per burst, not per message). That receive
// side — mailboxes, handler table, pumps — is the Inbox, which every
// transport embeds, so the contract above is implemented once.
//
// # Buffer ownership
//
// The fabric pools buffers on its hot path (see Alloc/Recycle). Ownership
// of a message payload moves in one direction: the sender gives up the
// payload at Send (it must not mutate it afterwards), and the receiving
// handler becomes the payload's sole owner at dispatch. A handler — or
// whatever the handler hands the payload to — may pass the buffer to
// Recycle once it has no further use for it, returning it to the pool;
// not recycling is always safe and merely leaves the buffer to the
// garbage collector.
package amnet

import (
	"fmt"
	"sync"

	"github.com/acedsm/ace/internal/trace"
)

// NodeID identifies a logical processor in the cluster. Nodes are numbered
// 0..N-1.
type NodeID int32

// HandlerID names a registered active-message handler on the destination
// node. The runtime reserves a small number of IDs for its own use; see
// package core.
type HandlerID uint16

// MaxHandlers bounds the handler table size on every endpoint.
const MaxHandlers = trace.MaxHandlers

// Msg is a single active message. A, B, C and D are small scalar arguments
// (typically a region id, a waiter sequence number, and auxiliary values);
// bulk data travels in Payload. On delivery the handler is the payload's
// sole owner (see the package comment's ownership contract): it may read
// it, retain it, or return it to the fabric's buffer pool with Recycle
// when done. It must not mutate a payload it plans to recycle while any
// copy of the slice escapes.
type Msg struct {
	Dst, Src NodeID
	Handler  HandlerID
	A, B, C  uint64
	D        uint64
	Payload  []byte
}

// Handler is the function type invoked for a delivered message. It runs on
// the destination node's pump goroutine and must not block on network
// events (it may send messages). The handler owns m.Payload; passing it
// to Recycle when finished keeps the fabric's buffer pool warm.
type Handler func(Msg)

// Endpoint is one node's attachment to the network.
type Endpoint interface {
	// ID returns this endpoint's node id.
	ID() NodeID
	// Nodes returns the total number of nodes in the network.
	Nodes() int
	// Register installs fn as the handler for id. It must be called
	// before any message with that handler id arrives; registration
	// after Start is a programming error.
	Register(id HandlerID, fn Handler)
	// Send enqueues m for delivery to m.Dst. It never blocks and is safe
	// to call from handlers and from compute threads concurrently.
	// Ownership of the payload passes to the fabric: the caller must not
	// mutate it after Send (transports that copy synchronously are
	// identified by the PayloadCopier interface).
	Send(m Msg)
	// Stats returns this endpoint's traffic counters.
	Stats() *trace.NetStats
}

// PayloadCopier is implemented by endpoints whose Send copies the
// payload into transport-owned memory before returning. For such
// transports a sender that needs the buffer back immediately (for
// example, a runtime that would otherwise defensively clone) may skip
// the copy of its own.
type PayloadCopier interface {
	// CopiesPayloadOnSend reports whether Send has finished reading the
	// payload by the time it returns.
	CopiesPayloadOnSend() bool
}

// MultiSender is implemented by endpoints that can fan one message out
// to several destinations while materializing the payload only once.
// Unlike Send, SendMulti does not consume the payload: it has finished
// reading m.Payload by the time it returns (the in-process fabric
// copies it once into a shared pool-exempt buffer; a transport that
// copies on send encodes per-destination frames directly from it), so
// the caller keeps ownership of its buffer. m.Dst is ignored.
//
// Because by-reference fabrics deliver the one shared buffer to every
// destination, SendMulti is only correct for messages whose handlers
// treat the payload as read-only before recycling it — true of the
// runtime's collective handlers, which clone anything they retain.
type MultiSender interface {
	SendMulti(dsts []NodeID, m Msg)
}

// PeerAware is implemented by endpoints that can detect the loss of a
// peer node (a supervised connection that exhausted its reconnect
// budget, or an injected kill on a fault-injecting transport). The
// runtime registers a handler so blocked synchronization can fail with
// a typed error instead of hanging forever.
type PeerAware interface {
	// SetPeerDownHandler installs fn, called at most once per lost peer.
	// fn may be invoked from a transport goroutine and must not block;
	// it must be installed before traffic starts.
	SetPeerDownHandler(fn func(peer NodeID))
}

// Network is a set of connected endpoints, one per node.
type Network interface {
	Endpoints() []Endpoint
	// Close shuts down delivery. Messages still queued may be dropped.
	Close() error
}

// ChanConfig configures an in-process channel network.
type ChanConfig struct {
	// Nodes is the number of endpoints to create.
	Nodes int
	// Lanes shards each endpoint's dispatch into this many pump
	// goroutines, keyed by source node (lane = src mod Lanes), so
	// handlers for messages from different senders can run on different
	// cores. All messages from one sender map to one lane, preserving
	// the per-(sender, handler) FIFO contract; what is given up is
	// whole-node handler serialization, so receivers must be safe for
	// concurrent handlers from distinct senders. Zero or one means the
	// classic single pump per node (bit-identical to the pre-sharding
	// fabric); values above Nodes are clamped (extra lanes could never
	// receive traffic).
	Lanes int
}

// NewChanNetwork builds an in-process network of n endpoints connected by
// unbounded mailboxes, one pump goroutine per node and lane.
func NewChanNetwork(cfg ChanConfig) (Network, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("amnet: invalid node count %d", cfg.Nodes)
	}
	nw := &chanNetwork{eps: make([]*chanEndpoint, cfg.Nodes)}
	for i := range nw.eps {
		ep := &chanEndpoint{id: NodeID(i), nw: nw}
		ep.Inbox = NewInbox(cfg.Lanes, cfg.Nodes, headerBytes, &ep.stats)
		nw.eps[i] = ep
	}
	for _, ep := range nw.eps {
		ep.Start(&nw.wg, nil)
	}
	return nw, nil
}

type chanNetwork struct {
	eps []*chanEndpoint
	wg  sync.WaitGroup
}

func (n *chanNetwork) Endpoints() []Endpoint {
	out := make([]Endpoint, len(n.eps))
	for i, ep := range n.eps {
		out[i] = ep
	}
	return out
}

func (n *chanNetwork) Close() error {
	for _, ep := range n.eps {
		ep.Close()
	}
	n.wg.Wait()
	return nil
}

// chanEndpoint is one node's attachment: a Send pushes straight into the
// destination's Inbox, by reference.
type chanEndpoint struct {
	*Inbox
	id    NodeID
	nw    *chanNetwork
	stats trace.NetStats
}

func (e *chanEndpoint) ID() NodeID { return e.id }

func (e *chanEndpoint) Nodes() int { return len(e.nw.eps) }

func (e *chanEndpoint) Send(m Msg) {
	if int(m.Dst) < 0 || int(m.Dst) >= len(e.nw.eps) {
		panic(fmt.Sprintf("amnet: send to invalid node %d", m.Dst))
	}
	m.Src = e.id
	e.stats.CountSend(headerBytes + len(m.Payload))
	e.nw.eps[m.Dst].Push(m, e.stats.SendStamp())
}

// SendMulti fans m out to each destination with the payload encoded
// once: a single SharedAlloc copy travels to every receiver, and each
// receiver's Recycle of it is a no-op (see MultiSender for the
// read-only contract this relies on). The caller keeps m.Payload.
func (e *chanEndpoint) SendMulti(dsts []NodeID, m Msg) {
	if len(dsts) == 0 {
		return
	}
	var shared []byte
	if len(m.Payload) > 0 {
		shared = SharedAlloc(len(m.Payload))
		copy(shared, m.Payload)
	}
	for _, d := range dsts {
		mm := m
		mm.Dst = d
		mm.Payload = shared
		e.Send(mm)
	}
}

func (e *chanEndpoint) Stats() *trace.NetStats { return &e.stats }
