package udpnet

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptive/internal/netapi"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestBatchReceiverDelivery drives traffic through the batched datapath end
// to end: a BatchReceiver must see every datagram exactly once, and the
// batch counters must account for them.
func TestBatchReceiverDelivery(t *testing.T) {
	p := New(WithBatch(16), WithFlushWindow(200*time.Microsecond), WithQueueLen(1<<12))
	defer p.Close()

	a, err := p.Open(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Open(2, 20)
	if err != nil {
		t.Fatal(err)
	}

	var pkts, batches atomic.Uint64
	var mu sync.Mutex
	seen := make(map[byte]bool)
	be := b.(netapi.BatchEndpoint)
	be.SetBatchReceiver(func(batch []netapi.Packet) {
		batches.Add(1)
		for i := range batch {
			pkts.Add(1)
			if len(batch[i].Data) > 0 {
				mu.Lock()
				seen[batch[i].Data[0]] = true
				mu.Unlock()
			}
			if batch[i].From.Host != 1 || batch[i].From.Port != 10 {
				t.Errorf("bad source %v", batch[i].From)
			}
		}
	})
	// A per-packet receiver installed alongside must NOT double-deliver.
	b.SetReceiver(func(pkt []byte, from netapi.Addr) {
		t.Error("per-packet receiver invoked despite batch receiver")
	})

	const n = 100
	for i := 0; i < n; i++ {
		if err := a.Send([]byte{byte(i), 1, 2, 3}, netapi.Addr{Host: 2, Port: 20}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return pkts.Load() == n }, "all packets")

	mu.Lock()
	uniq := len(seen)
	mu.Unlock()
	if uniq != n {
		t.Fatalf("saw %d distinct packets, want %d", uniq, n)
	}
	bc := p.BatchCounters()
	if bc.FramesIn < n || bc.BatchesIn == 0 || bc.BatchesIn > bc.DatagramsIn {
		t.Fatalf("counters out of whack: %+v", bc)
	}
	if bc.FramesOut < n || bc.BatchesOut == 0 {
		t.Fatalf("send-side counters out of whack: %+v", bc)
	}
	// Coalescing must have engaged: fewer wire datagrams than frames.
	if bc.DatagramsOut >= bc.FramesOut || bc.TrainFrames == 0 {
		t.Fatalf("no tx coalescing: %+v", bc)
	}
	if batches.Load() != bc.BatchesIn {
		t.Fatalf("upcall batches %d != counted batches %d", batches.Load(), bc.BatchesIn)
	}
}

// TestBatchedPayloadsIntact checks every byte of every packet through the
// batched path. Each group mixes sizes so the send arena outgrows its array
// while earlier frames are still queued, trains and singles share a flush,
// and a received batch carries packets of many lengths in one buffer.
func TestBatchedPayloadsIntact(t *testing.T) {
	p := New(WithBatch(16), WithFlushWindow(time.Hour))
	defer p.Close()

	a, _ := p.Open(1, 10)
	b, _ := p.Open(2, 20)
	payload := func(i int) []byte {
		pkt := make([]byte, 1+(i*997)%6000)
		for j := range pkt {
			pkt[j] = byte(i*31 + j)
		}
		return pkt
	}
	var mu sync.Mutex
	var got [][]byte
	b.(netapi.BatchEndpoint).SetBatchReceiver(func(batch []netapi.Packet) {
		mu.Lock()
		defer mu.Unlock()
		for i := range batch {
			got = append(got, append([]byte(nil), batch[i].Data...))
		}
	})
	const groups, per = 8, 16
	for g := 0; g < groups; g++ {
		for i := g * per; i < (g+1)*per; i++ {
			if err := a.Send(payload(i), netapi.Addr{Host: 2, Port: 20}); err != nil {
				t.Fatal(err)
			}
		}
		want := (g + 1) * per
		waitFor(t, 5*time.Second, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == want }, "group delivery")
	}
	for i, pkt := range got {
		if want := payload(i); !bytes.Equal(pkt, want) {
			t.Fatalf("packet %d: %d bytes, want %d, contents differ", i, len(pkt), len(want))
		}
	}
	if p.BatchCounters().TrainFrames == 0 {
		t.Fatal("no frame trains formed; the mixed-size flush was not exercised")
	}
}

// TestMulticastFanoutContinuesOnError is the satellite regression: a dead
// group member must not starve the rest of the fan-out. The failing member
// sorts first in the member list, so the old abort-on-first-error behavior
// would have delivered nothing.
func TestMulticastFanoutContinuesOnError(t *testing.T) {
	p := New()
	defer p.Close()

	a, err := p.Open(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Open(2, 20)
	if err != nil {
		t.Fatal(err)
	}

	var got atomic.Uint64
	b.SetReceiver(func(pkt []byte, from netapi.Addr) { got.Add(1) })

	group := netapi.MulticastBit | 7
	// Member 99 was never opened or registered: its send must fail, and
	// member 2's must still happen.
	p.RegisterGroup(group, 99, 2)

	err = a.Send([]byte("hello"), netapi.Addr{Host: group, Port: 20})
	if err == nil {
		t.Fatal("want aggregated error for unreachable member, got nil")
	}
	if !strings.Contains(err.Error(), "unknown host") {
		t.Fatalf("unexpected error: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool { return got.Load() == 1 }, "delivery to live member")
	if p.FanoutErrors() != 1 {
		t.Fatalf("FanoutErrors = %d, want 1", p.FanoutErrors())
	}

	// errors.Join output must still unwrap to something inspectable.
	var joined interface{ Unwrap() []error }
	if !errors.As(err, &joined) {
		t.Fatalf("error %T does not unwrap as a join", err)
	}
}

// TestWindowFlush checks the FlushWindow path: fewer packets than
// BatchSize must still leave the socket once the window elapses.
func TestWindowFlush(t *testing.T) {
	p := New(WithBatch(32), WithFlushWindow(500*time.Microsecond))
	defer p.Close()

	a, _ := p.Open(1, 10)
	b, _ := p.Open(2, 20)
	var got atomic.Uint64
	b.SetReceiver(func(pkt []byte, from netapi.Addr) { got.Add(1) })

	for i := 0; i < 3; i++ {
		if err := a.Send([]byte{byte(i)}, netapi.Addr{Host: 2, Port: 20}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return got.Load() == 3 }, "window-flushed packets")
	if p.BatchCounters().FlushesWindow == 0 {
		t.Fatalf("expected a window flush: %+v", p.BatchCounters())
	}
}

// TestSizeFlush checks that a queue reaching BatchSize flushes immediately,
// without waiting for the (deliberately huge) window.
func TestSizeFlush(t *testing.T) {
	p := New(WithBatch(8), WithFlushWindow(time.Hour))
	defer p.Close()

	a, _ := p.Open(1, 10)
	b, _ := p.Open(2, 20)
	var got atomic.Uint64
	b.SetReceiver(func(pkt []byte, from netapi.Addr) { got.Add(1) })

	for i := 0; i < 8; i++ {
		if err := a.Send([]byte{byte(i)}, netapi.Addr{Host: 2, Port: 20}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return got.Load() == 8 }, "size-flushed packets")
	bc := p.BatchCounters()
	if bc.FlushesSize == 0 {
		t.Fatalf("expected a size flush: %+v", bc)
	}
}

// TestExplicitFlush checks Endpoint.Flush forces a partial queue out.
func TestExplicitFlush(t *testing.T) {
	p := New(WithBatch(32), WithFlushWindow(time.Hour))
	defer p.Close()

	a, _ := p.Open(1, 10)
	b, _ := p.Open(2, 20)
	var got atomic.Uint64
	b.SetReceiver(func(pkt []byte, from netapi.Addr) { got.Add(1) })

	if err := a.Send([]byte("x"), netapi.Addr{Host: 2, Port: 20}); err != nil {
		t.Fatal(err)
	}
	if err := a.(*Endpoint).Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return got.Load() == 1 }, "flushed packet")
}

// TestCloseFlushesTail checks that closing an endpoint drains its queued
// sends before the socket goes away (no silent loss on shutdown).
func TestCloseFlushesTail(t *testing.T) {
	p := New(WithBatch(32), WithFlushWindow(time.Hour))
	defer p.Close()

	a, _ := p.Open(1, 10)
	b, _ := p.Open(2, 20)
	var got atomic.Uint64
	b.SetReceiver(func(pkt []byte, from netapi.Addr) { got.Add(1) })

	for i := 0; i < 5; i++ {
		if err := a.Send([]byte{byte(i)}, netapi.Addr{Host: 2, Port: 20}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return got.Load() == 5 }, "tail flush on close")
}

// TestSkippedCopies is the satellite regression for the reader's old
// unconditional copy: with no receiver installed the payload copy must be
// skipped (and counted), not allocated and then thrown away.
func TestSkippedCopies(t *testing.T) {
	p := New()
	defer p.Close()

	a, _ := p.Open(1, 10)
	if _, err := p.Open(2, 20); err != nil {
		t.Fatal(err)
	}
	// No receiver on host 2.
	for i := 0; i < 10; i++ {
		if err := a.Send([]byte("nobody home"), netapi.Addr{Host: 2, Port: 20}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return p.SkippedCopies() >= 10 }, "skipped copies")
}

// TestStressSendBatchedReaderClose races concurrent senders against the
// batched reader and endpoint/provider close. Run under -race; the
// assertions are "no crash, no deadlock, errors only after close".
func TestStressSendBatchedReaderClose(t *testing.T) {
	p := New(WithBatch(16), WithFlushWindow(100*time.Microsecond), WithQueueLen(1<<12))

	a, err := p.Open(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Open(2, 20)
	if err != nil {
		t.Fatal(err)
	}
	var got atomic.Uint64
	b.(netapi.BatchEndpoint).SetBatchReceiver(func(batch []netapi.Packet) {
		got.Add(uint64(len(batch)))
	})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	payload := make([]byte, 256)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = a.Send(payload, netapi.Addr{Host: 2, Port: 20}) // errors fine after close
			}
		}()
	}
	// Let traffic flow, then tear down while the senders are still running.
	waitFor(t, 5*time.Second, func() bool { return got.Load() > 1000 }, "steady traffic")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	p.Close()

	// After Close, sends must fail cleanly rather than panic.
	if err := a.Send(payload, netapi.Addr{Host: 2, Port: 20}); err == nil {
		t.Fatal("send after close should error")
	}
}

// TestPerPacketModeStillWorks pins the FlushWindow=0 configuration (the A/B
// baseline): per-packet writes, no flush machinery engaged.
func TestPerPacketModeStillWorks(t *testing.T) {
	p := New(WithBatch(1), WithFlushWindow(0))
	defer p.Close()

	a, _ := p.Open(1, 10)
	b, _ := p.Open(2, 20)
	var got atomic.Uint64
	b.SetReceiver(func(pkt []byte, from netapi.Addr) { got.Add(1) })

	for i := 0; i < 50; i++ {
		if err := a.Send([]byte{byte(i)}, netapi.Addr{Host: 2, Port: 20}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return got.Load() == 50 }, "per-packet delivery")
	bc := p.BatchCounters()
	if bc.BatchesOut != 0 || bc.FlushesSize != 0 || bc.FlushesWindow != 0 {
		t.Fatalf("flush machinery engaged in per-packet mode: %+v", bc)
	}
}

// TestFlushRehomesReregisteredPeer is the stale-address regression: frames
// already sitting on the flush queue when a peer re-registers (restart on a
// new socket) must flush to the peer's NEW address. The old behavior used the
// *hostAddr captured at enqueue time, silently black-holing the queued tail
// into the dead socket.
func TestFlushRehomesReregisteredPeer(t *testing.T) {
	// A flush window far beyond the test keeps frames queued until the
	// explicit Flush below.
	src := New(WithBatch(64), WithFlushWindow(time.Hour))
	defer src.Close()
	a, err := src.Open(1, 10)
	if err != nil {
		t.Fatal(err)
	}

	// Two incarnations of host 2 on separate providers: the pre-restart
	// socket (which must receive nothing) and the post-restart one.
	old := New()
	defer old.Close()
	oldEp, err := old.Open(2, 20)
	if err != nil {
		t.Fatal(err)
	}
	var oldGot atomic.Uint64
	oldEp.SetReceiver(func(pkt []byte, from netapi.Addr) { oldGot.Add(1) })

	fresh := New()
	defer fresh.Close()
	freshEp, err := fresh.Open(2, 20)
	if err != nil {
		t.Fatal(err)
	}
	var freshGot atomic.Uint64
	freshEp.SetReceiver(func(pkt []byte, from netapi.Addr) { freshGot.Add(1) })

	if err := src.RegisterHost(2, oldEp.(*Endpoint).sock.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if err := a.Send([]byte{byte(i)}, netapi.Addr{Host: 2, Port: 20}); err != nil {
			t.Fatal(err)
		}
	}

	// Peer "restarts": host 2 re-registers at the new socket, then the
	// queued tail flushes.
	if err := src.RegisterHost(2, freshEp.(*Endpoint).sock.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	if err := a.(*Endpoint).Flush(); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 5*time.Second, func() bool { return freshGot.Load() == n }, "rehomed delivery")
	if got := oldGot.Load(); got != 0 {
		t.Fatalf("dead socket received %d frames, want 0", got)
	}
	if re := src.MetricCounters()["udpnet.rehomed_frames"](); re != n {
		t.Fatalf("rehomed_frames = %d, want %d", re, n)
	}
}
