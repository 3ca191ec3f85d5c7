package main

import (
	"fmt"
	"math/rand"
	"time"

	"adaptive/internal/netapi"
	"adaptive/internal/sim"
)

// The timing tap wraps a netapi.Provider so the benchmark sees every entry
// into the stack (application Conn.Send, provider receive upcall, timer
// fire) and every exit from it (provider send, application delivery) as a
// span, without touching the stack's code. One Tracer serves one event loop
// — a udpnet provider or one simulator shard — so its state needs no locks.

type spanKind uint8

const (
	spanAppSend  spanKind = iota // application Conn.Send (entry)
	spanRx                       // provider receive upcall (entry)
	spanTimer                    // timer fire (entry)
	spanProvSend                 // Endpoint.Send from the stack (exit)
	spanDeliver                  // application delivery callback (exit)
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"app.send", "provider.rx", "timer.fire", "provider.send", "app.deliver"}

// spanAgg is the running account of a Tracer; two snapshots subtract into
// the account of the interval between them.
type spanAgg struct {
	count  [numSpanKinds]uint64
	self   [numSpanKinds]int64 // ns, duration minus direct children
	rootNs int64               // time covered by root spans

	rxPkts, rxUpcalls     uint64
	timerArms, timerFires uint64
	sentByType            [16]uint64 // PDUs handed to the provider, by wire type
}

func (a spanAgg) sub(b spanAgg) spanAgg {
	for k := range a.count {
		a.count[k] -= b.count[k]
		a.self[k] -= b.self[k]
	}
	for i := range a.sentByType {
		a.sentByType[i] -= b.sentByType[i]
	}
	a.rootNs -= b.rootNs
	a.rxPkts -= b.rxPkts
	a.rxUpcalls -= b.rxUpcalls
	a.timerArms -= b.timerArms
	a.timerFires -= b.timerFires
	return a
}

func (a *spanAgg) add(b spanAgg) {
	for k := range a.count {
		a.count[k] += b.count[k]
		a.self[k] += b.self[k]
	}
	for i := range a.sentByType {
		a.sentByType[i] += b.sentByType[i]
	}
	a.rootNs += b.rootNs
	a.rxPkts += b.rxPkts
	a.rxUpcalls += b.rxUpcalls
	a.timerArms += b.timerArms
	a.timerFires += b.timerFires
}

// spanRec is one recorded span; parent indexes the log (-1 for a root).
type spanRec struct {
	Kind   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
}

type openSpan struct {
	kind  spanKind
	start int64
	child int64
	rec   int32 // index into log, -1 when not logged
}

// maxLoggedSpans bounds the in-memory span log; the aggregates keep
// counting past it.
const maxLoggedSpans = 1 << 16

// maxPktSamples bounds the reservoir of sent PDUs the ledger replays.
const maxPktSamples = 512

// Tracer records spans for one event loop.
type Tracer struct {
	epoch time.Time
	open  []openSpan
	agg   spanAgg
	log   []spanRec

	pkts    [][]byte // reservoir sample of PDUs sent (ledger input)
	pktSeen uint64
	rng     *rand.Rand
}

func newTracer(seed int64) *Tracer {
	return &Tracer{epoch: time.Now(), rng: rand.New(rand.NewSource(seed))}
}

func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span. A nil Tracer (untraced run) records nothing.
func (t *Tracer) begin(k spanKind) {
	if t == nil {
		return
	}
	s := openSpan{kind: k, start: t.now(), rec: -1}
	if len(t.log) < maxLoggedSpans {
		parent := int32(-1)
		if n := len(t.open); n > 0 {
			parent = t.open[n-1].rec
		}
		s.rec = int32(len(t.log))
		t.log = append(t.log, spanRec{Kind: spanNames[k], Start: s.start, Parent: parent})
	}
	t.open = append(t.open, s)
}

// end closes the innermost open span.
func (t *Tracer) end() {
	if t == nil {
		return
	}
	now := t.now()
	n := len(t.open) - 1
	s := t.open[n]
	t.open = t.open[:n]
	d := now - s.start
	t.agg.count[s.kind]++
	t.agg.self[s.kind] += d - s.child
	if n > 0 {
		t.open[n-1].child += d
	} else {
		t.agg.rootNs += d
	}
	if s.rec >= 0 {
		t.log[s.rec].End = now
	}
}

// notePDU counts a PDU on its way to the provider and keeps a reservoir
// sample of them for the layer-alone ledger.
func (t *Tracer) notePDU(pkt []byte) {
	if len(pkt) > 0 {
		t.agg.sentByType[pkt[0]&0x0f]++
	}
	t.pktSeen++
	if len(t.pkts) < maxPktSamples {
		t.pkts = append(t.pkts, append([]byte(nil), pkt...))
	} else if j := t.rng.Int63n(int64(t.pktSeen)); j < maxPktSamples {
		t.pkts[j] = append(t.pkts[j][:0], pkt...)
	}
}

// wrapProvider returns p behind the timing tap. The wrapper keeps every
// optional interface the stack or node type-asserts on p, its clock and its
// endpoints; a shape it does not know is an error rather than a silently
// narrower provider.
func wrapProvider(p netapi.Provider, t *Tracer) (netapi.Provider, error) {
	base := &tapProvider{inner: p, t: t, clock: wrapClock(p.Clock(), t)}
	posts, hasPosts := p.(interface{ DroppedPosts() uint64 })
	pkts, hasPkts := p.(interface{ DroppedPackets() uint64 })
	switch {
	case hasPosts && hasPkts:
		return nil, fmt.Errorf("tap: provider %T reports both drop kinds", p)
	case hasPosts:
		return &tapPostsProvider{tapProvider: base, dropped: posts.DroppedPosts}, nil
	case hasPkts:
		return &tapPacketsProvider{tapProvider: base, dropped: pkts.DroppedPackets}, nil
	}
	return base, nil
}

type tapProvider struct {
	inner netapi.Provider
	t     *Tracer
	clock netapi.Clock
}

func (p *tapProvider) Clock() netapi.Clock { return p.clock }

func (p *tapProvider) Open(host netapi.HostID, port uint16) (netapi.Endpoint, error) {
	ep, err := p.inner.Open(host, port)
	if err != nil {
		return nil, err
	}
	e := &tapEndpoint{inner: ep, t: p.t}
	be, isBatch := ep.(netapi.BatchEndpoint)
	fl, isFlush := ep.(interface{ Flush() error })
	switch {
	case isBatch && isFlush:
		return &tapBatchEndpoint{tapEndpoint: e, batch: be, flush: fl.Flush}, nil
	case !isBatch && !isFlush:
		return e, nil
	}
	ep.Close()
	return nil, fmt.Errorf("tap: endpoint %T has an unsupported optional-interface set", ep)
}

type tapPostsProvider struct {
	*tapProvider
	dropped func() uint64
}

func (p *tapPostsProvider) DroppedPosts() uint64 { return p.dropped() }

type tapPacketsProvider struct {
	*tapProvider
	dropped func() uint64
}

func (p *tapPacketsProvider) DroppedPackets() uint64 { return p.dropped() }

type tapEndpoint struct {
	inner netapi.Endpoint
	t     *Tracer
}

func (e *tapEndpoint) Send(pkt []byte, dst netapi.Addr) error {
	e.t.notePDU(pkt)
	e.t.begin(spanProvSend)
	err := e.inner.Send(pkt, dst)
	e.t.end()
	return err
}

func (e *tapEndpoint) SetReceiver(r netapi.Receiver) {
	if r == nil {
		e.inner.SetReceiver(nil)
		return
	}
	t := e.t
	e.inner.SetReceiver(func(pkt []byte, from netapi.Addr) {
		t.agg.rxPkts++
		t.agg.rxUpcalls++
		t.begin(spanRx)
		r(pkt, from)
		t.end()
	})
}

func (e *tapEndpoint) LocalAddr() netapi.Addr      { return e.inner.LocalAddr() }
func (e *tapEndpoint) PathMTU(dst netapi.Addr) int { return e.inner.PathMTU(dst) }
func (e *tapEndpoint) Close() error                { return e.inner.Close() }

type tapBatchEndpoint struct {
	*tapEndpoint
	batch netapi.BatchEndpoint
	flush func() error
}

func (e *tapBatchEndpoint) SetBatchReceiver(r netapi.BatchReceiver) {
	if r == nil {
		e.batch.SetBatchReceiver(nil)
		return
	}
	t := e.t
	e.batch.SetBatchReceiver(func(b []netapi.Packet) {
		t.agg.rxPkts += uint64(len(b))
		t.agg.rxUpcalls++
		t.begin(spanRx)
		r(b)
		t.end()
	})
}

func (e *tapBatchEndpoint) Flush() error { return e.flush() }

// wrapClock times timer fires. A kernel-backed clock keeps its Kernel()
// accessor, so the event manager still schedules on the simulator's pooled
// wheel directly — those timers bypass the tap, exactly as they bypass the
// clock in an untraced run.
func wrapClock(c netapi.Clock, t *Tracer) netapi.Clock {
	tc := &tapClock{inner: c, t: t}
	if kc, ok := c.(interface{ Kernel() *sim.Kernel }); ok {
		return &tapKernelClock{tapClock: tc, kernel: kc.Kernel}
	}
	return tc
}

type tapClock struct {
	inner netapi.Clock
	t     *Tracer
}

func (c *tapClock) Now() time.Duration { return c.inner.Now() }

func (c *tapClock) AfterFunc(d time.Duration, fn func()) netapi.Timer {
	t := c.t
	t.agg.timerArms++
	// The returned Timer is the provider's own: Stop needs no timing, and
	// fires are counted here.
	return c.inner.AfterFunc(d, func() {
		t.agg.timerFires++
		t.begin(spanTimer)
		fn()
		t.end()
	})
}

type tapKernelClock struct {
	*tapClock
	kernel func() *sim.Kernel
}

func (c *tapKernelClock) Kernel() *sim.Kernel { return c.kernel() }
