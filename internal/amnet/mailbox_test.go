package amnet

import (
	"sync"
	"testing"
)

func TestMailboxBatchedPop(t *testing.T) {
	b := newMailbox()
	const n = 100
	for i := 0; i < n; i++ {
		b.push(item{msg: Msg{A: uint64(i)}})
	}
	batch, ok := b.popAll(nil)
	if !ok {
		t.Fatal("popAll reported closed")
	}
	if len(batch) != n {
		t.Fatalf("batched pop returned %d items, want %d in one swap", len(batch), n)
	}
	for i, it := range batch {
		if it.msg.A != uint64(i) {
			t.Fatalf("out of order at %d: got %d", i, it.msg.A)
		}
	}
	// The slice passed back in becomes the backing array for subsequent
	// pushes, so the following round's batch reuses its capacity.
	b.push(item{msg: Msg{A: 1}})
	b.popAll(batch) // pending becomes batch[:0]
	b.push(item{msg: Msg{A: 2}})
	again, ok := b.popAll(nil)
	if !ok || len(again) != 1 || again[0].msg.A != 2 {
		t.Fatalf("popAll after recycle = %+v, ok=%v", again, ok)
	}
	if cap(again) != cap(batch) {
		t.Errorf("pending slice not recycled: cap %d, want %d", cap(again), cap(batch))
	}
}

func TestMailboxFIFOPerSenderUnderConcurrentPush(t *testing.T) {
	b := newMailbox()
	const senders = 8
	const perSender = 2000
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				b.push(item{msg: Msg{Src: NodeID(s), A: uint64(i)}})
			}
		}(s)
	}
	go func() {
		wg.Wait()
		b.close()
	}()
	next := [senders]uint64{}
	total := 0
	var scratch []item
	for {
		batch, ok := b.popAll(scratch)
		for _, it := range batch {
			s := it.msg.Src
			if it.msg.A != next[s] {
				t.Fatalf("sender %d out of order: got %d, want %d", s, it.msg.A, next[s])
			}
			next[s]++
			total++
		}
		if !ok {
			break
		}
		scratch = batch
	}
	if total != senders*perSender {
		t.Fatalf("drained %d items, want %d", total, senders*perSender)
	}
}

func TestMailboxCloseWhileNonEmptyDrains(t *testing.T) {
	b := newMailbox()
	for i := 0; i < 5; i++ {
		b.push(item{msg: Msg{A: uint64(i)}})
	}
	b.close()
	batch, ok := b.popAll(nil)
	if !ok || len(batch) != 5 {
		t.Fatalf("first pop after close = %d items, ok=%v; want 5, true", len(batch), ok)
	}
	if _, ok := b.popAll(nil); ok {
		t.Fatal("drained mailbox still reports items after close")
	}
	// Pushes after close are dropped, and pop stays terminal.
	if n := b.push(item{msg: Msg{A: 99}}); n != 0 {
		t.Fatalf("push after close reported depth %d, want 0", n)
	}
	if batch, ok := b.popAll(nil); ok {
		t.Fatalf("push after close was queued: %d items", len(batch))
	}
}

// TestMailboxPushAfterCloseRecycles pins the closed-mailbox drop
// policy: the sender gave the payload up at Send, so a push that can no
// longer be delivered returns the buffer to the pool rather than leaving
// it to the garbage collector. sync.Pool may drop a Put (it does so at
// random under the race detector) or hand it to another P, so the check
// retries and passes once the dropped buffer comes back out of Alloc.
func TestMailboxPushAfterCloseRecycles(t *testing.T) {
	b := newMailbox()
	b.close()
	for try := 0; try < 100; try++ {
		buf := Alloc(200)
		b.push(item{msg: Msg{Payload: buf}})
		again := Alloc(200)
		if &again[0] == &buf[0] {
			return
		}
	}
	t.Fatal("payload pushed after close never returned to the pool")
}

func TestAllocRecycleClasses(t *testing.T) {
	if Alloc(0) != nil {
		t.Error("Alloc(0) != nil")
	}
	for _, n := range []int{1, 63, 64, 65, 1000, 16384, 65536} {
		b := Alloc(n)
		if len(b) != n {
			t.Fatalf("Alloc(%d) len = %d", n, len(b))
		}
		want := poolClasses[classFor(n)]
		if cap(b) != want {
			t.Errorf("Alloc(%d) cap = %d, want class %d", n, cap(b), want)
		}
		Recycle(b)
	}
	// Oversize allocations bypass the pool.
	big := Alloc(poolClasses[len(poolClasses)-1] + 1)
	if len(big) != poolClasses[len(poolClasses)-1]+1 {
		t.Fatalf("oversize Alloc len = %d", len(big))
	}
	Recycle(big) // must be a no-op, not a panic
}

func TestRecycleReuse(t *testing.T) {
	// A recycled buffer of a class size comes back from the pool. sync.Pool
	// gives no hard guarantee, so accept either, but verify the contents
	// path: a reused buffer has the right length and is writable.
	b := Alloc(100)
	b[0] = 0xAB
	Recycle(b)
	c := Alloc(100)
	if len(c) != 100 || cap(c) != 256 {
		t.Fatalf("realloc len=%d cap=%d", len(c), cap(c))
	}
	c[0] = 0xCD
	Recycle(c)
	// Foreign buffers (capacity not a class) are silently ignored.
	Recycle(make([]byte, 100)) // cap 100 ≠ any class on typical allocators
	var stack [8]byte
	Recycle(stack[:])
	Recycle(nil)
}
