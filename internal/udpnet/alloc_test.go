package udpnet

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"adaptive/internal/event"
	"adaptive/internal/netapi"
)

// TestBatchedPathAllocs pins the steady-state allocation budget of the full
// batched live datapath — Send (frame encode into the send arena, flush
// queue, sendmmsg) through the reader (recvmmsg into reused ring, copy into
// the batch's buffer, one posted closure per batch) to the batch upcall —
// at under one allocation per packet. The budget lives on the per-endpoint
// send arena, the pooled rxBatch carriers and their buffers, pre-bound
// syscall callbacks, and the RCU host snapshot; a regression on any of
// them shows up here long before it shows up in BenchmarkE11_Live.
func TestBatchedPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation soak")
	}
	p := New(WithBatch(32), WithFlushWindow(200*time.Microsecond),
		WithQueueLen(1<<14), WithSocketBuffers(4<<20, 4<<20))
	defer p.Close()

	a, err := p.Open(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Open(2, 20)
	if err != nil {
		t.Fatal(err)
	}
	var received atomic.Uint64
	b.(netapi.BatchEndpoint).SetBatchReceiver(func(batch []netapi.Packet) {
		received.Add(uint64(len(batch)))
	})

	const window = 2048 // cap in-flight datagrams so the loop queue never sheds
	payload := make([]byte, 512)
	dst := netapi.Addr{Host: 2, Port: 20}
	pump := func(n uint64) {
		start := received.Load()
		var sent uint64
		for sent < n {
			for sent-(received.Load()-start) >= window {
				runtime.Gosched()
			}
			if err := a.Send(payload, dst); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		deadline := time.Now().Add(10 * time.Second)
		for received.Load()-start < n {
			if time.Now().After(deadline) {
				t.Fatalf("delivered %d/%d", received.Load()-start, n)
			}
			runtime.Gosched()
		}
	}

	// Warm the pools, the flush timer, and the socket path.
	pump(4096)

	const pkts = 4096
	allocs := testing.AllocsPerRun(1, func() { pump(pkts) })
	perPkt := allocs / pkts
	t.Logf("batched live path: %.0f allocs for %d pkts = %.4f allocs/pkt", allocs, pkts, perPkt)
	if perPkt >= 1.0 {
		t.Fatalf("allocs/pkt = %.3f, want < 1.0", perPkt)
	}
}

// TestPerPacketSendAllocs pins the FlushWindow=0 send path: frame encode
// into a pooled slab plus one WriteToUDPAddrPort, which must not allocate
// per packet either (the RCU host snapshot removed the per-send lookup
// lock; WriteToUDPAddrPort removed the sockaddr conversion alloc).
func TestPerPacketSendAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation soak")
	}
	p := New(WithBatch(1), WithFlushWindow(0), WithQueueLen(1<<14),
		WithSocketBuffers(4<<20, 4<<20))
	defer p.Close()

	a, err := p.Open(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Open(2, 20); err != nil {
		t.Fatal(err)
	}
	// No receiver on host 2: the reader skips the rx copies (counted), so
	// this measures the send side in isolation.
	payload := make([]byte, 512)
	dst := netapi.Addr{Host: 2, Port: 20}
	for i := 0; i < 1024; i++ { // warm
		if err := a.Send(payload, dst); err != nil {
			t.Fatal(err)
		}
	}
	const pkts = 2048
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < pkts; i++ {
			if err := a.Send(payload, dst); err != nil {
				t.Fatal(err)
			}
		}
	})
	perPkt := allocs / pkts
	t.Logf("per-packet send path: %.0f allocs for %d pkts = %.4f allocs/pkt", allocs, pkts, perPkt)
	if perPkt >= 1.0 {
		t.Fatalf("allocs/pkt = %.3f, want < 1.0", perPkt)
	}
}

// TestSessionTimerAllocs pins session-timer arming on the live provider at
// zero allocations: Event.Reset and Event.Cancel on a udpnet-backed
// event.Manager go straight to the provider's loop-owned timer wheel, with
// no closure, no netapi.Timer box and no runtime timer per arm. The
// measurement runs on the event loop, where protocol code arms its timers.
func TestSessionTimerAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation soak")
	}
	p := New()
	defer p.Close()
	m := event.NewManager(p.Clock())
	var reset, cancel float64
	p.Wait(func() {
		events := make([]*event.Event, 64)
		for i := range events { // warm the kernel's event free list
			events[i] = m.Schedule(time.Second, func() {})
		}
		i := 0
		reset = testing.AllocsPerRun(10000, func() {
			events[i%len(events)].Reset(200*time.Millisecond + time.Duration(i)*time.Microsecond)
			i++
		})
		cancel = testing.AllocsPerRun(10000, func() {
			e := events[i%len(events)]
			e.Cancel()
			e.Reset(200 * time.Millisecond)
			i++
		})
		for _, e := range events {
			e.Cancel()
		}
	})
	t.Logf("Event.Reset: %.2f allocs/op, Event.Cancel+Reset: %.2f allocs/op", reset, cancel)
	if reset != 0 || cancel != 0 {
		t.Fatalf("session timer arms allocate: Reset %.2f, Cancel+Reset %.2f allocs/op, want 0", reset, cancel)
	}
}
