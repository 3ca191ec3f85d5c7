// Package udpnet is the real-network provider: the same netapi interfaces
// the simulator implements, backed by UDP sockets and the wall clock, so an
// unmodified ADAPTIVE stack runs over loopback or a real LAN.
//
// Concurrency model: all protocol code for one provider runs on a single
// event loop goroutine. Socket readers post closures into the loop, and
// session timers live on a loop-owned timer wheel (a sim.Kernel on the
// provider clock's time base) that the loop fires before each job,
// preserving the no-locking discipline mechanisms are written against.
// State is split into three classes:
//
//   - loop-confined: the receive upcall and every timer callback run on the
//     loop goroutine, so protocol state behind them needs no locks; the
//     timer wheel itself is loop-confined too.
//   - atomic: lifecycle flags (Provider/Endpoint closed), the receiver
//     slots, the per-endpoint Sent/Received/Dropped counters, and the
//     RCU-style host/group registry snapshot the send path reads without
//     taking any lock.
//   - mutex-guarded: the authoritative host and group registries (mutation
//     only — Open/Close/RegisterHost/RegisterGroup republish an immutable
//     snapshot), and each endpoint's send flush queue.
//
// The datapath mirrors netsim's interrupt-coalescing design on the real
// socket (DESIGN.md §5.18):
//
//   - Receive: the reader drains up to BatchSize datagrams per recvmmsg
//     syscall into a reused ring of frame buffers, copies the payloads into
//     one pooled batch that owns their buffer, and posts ONE closure per
//     batch into the bounded loop queue — the queue amortizes a closure per
//     batch, not per packet, and the upcall side delivers the whole batch
//     through the optional netapi.BatchReceiver in a single call.
//   - Send: with FlushWindow > 0, frames are encoded into a per-endpoint
//     send arena and enqueued on a per-endpoint flush queue drained by one
//     sendmmsg per batch — when the queue reaches BatchSize (size flush) or
//     when FlushWindow elapses (window flush). FlushWindow == 0 keeps the
//     per-packet write path (one syscall per Send), the A/B baseline the
//     equivalence tests compare against, exactly like netsim's
//     DeliverPerPacket.
//
// Batch syscalls need OS support: on linux/amd64 the provider uses raw
// recvmmsg/sendmmsg (see batch_linux.go); everywhere else the same code
// shape runs over single-datagram reads and writes (batch_fallback.go), so
// behavior is identical and only the syscall amortization is lost.
//
// A reader that finds the loop queue full drops the batch and counts it
// (congestion loss, exactly the netapi.Endpoint.Send contract) instead of
// blocking the socket drain; when the queue is already full the per-packet
// copies are skipped too (counted in SkippedCopies). Shutdown is ordered:
// Provider.Close first closes every endpoint (flushing its send queue),
// waits for all reader goroutines to exit, then stops the loop — so no
// packet upcall can run after Close returns.
package udpnet

import (
	"errors"
	"fmt"
	"math"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"adaptive/internal/message"
	"adaptive/internal/netapi"
	"adaptive/internal/sim"
)

// maxPacket bounds received datagram size.
const maxPacket = 64 << 10

// frameOverhead is the provider frame header: srcHost uint32 | srcPort
// uint16, prepended to every datagram so one OS socket serves one netapi
// host with full source addressing.
const frameOverhead = 6

// maxBatch caps BatchSize: each endpoint's reader owns BatchSize frame
// buffers of maxPacket bytes, so the cap bounds per-endpoint memory (64
// frames = 4 MiB).
const maxBatch = 64

// Frame-train coalescing: consecutive same-destination frames in the flush
// queue ride one wire datagram, so the kernel's per-datagram cost (the
// dominant cost on the loopback path — syscall batching alone only shaves
// the entry overhead) is paid once per train instead of once per frame.
// Train layout:
//
//	[0..3]  0xFF 0xFF 0xFF 0xFF   marker (trainMarker: an impossible
//	                              source host — unicast sources never have
//	                              the multicast bit set, so a single
//	                              frame's header can't collide)
//	[4..5]  count  uint16 BE
//	[6..11] srcHost uint32 BE | srcPort uint16 BE (shared by all frames)
//	then count × { uint16 BE length | payload }
//
// Single frames — and everything in FlushWindow=0 mode — keep the exact
// pre-train wire format (6-byte header + payload), so per-packet mode is
// bitwise identical to the pre-batching provider on the wire.
const (
	trainMarker   = 0xFF                  // each of the first four bytes
	trainHdr      = 4 + 2 + frameOverhead // marker + count + src header
	trainRecHdr   = 2                     // per-frame length prefix
	maxTrainBytes = 60 << 10              // stay under the rx ring's maxPacket slots
	maxTrainCount = 128                   // frames per train (fits uint16 with margin)
)

// DefaultBatchSize is the rx/tx batch depth when Config.BatchSize is 0.
const DefaultBatchSize = 32

// Config carries the provider's tunables; zero values pick the defaults
// noted on each field.
type Config struct {
	// BindIP is the local address endpoints bind ("127.0.0.1" default).
	// Use a real interface address (or "0.0.0.0") to serve a LAN.
	BindIP string
	// QueueLen bounds the event-loop queue (default 4096). Packets that
	// arrive while the queue is full are dropped and counted.
	QueueLen int
	// ReadBuffer / WriteBuffer set the socket buffer sizes in bytes
	// (0 keeps the OS default). High-speed transfers want several MB.
	ReadBuffer, WriteBuffer int
	// BatchSize is the maximum datagrams moved per batch syscall and per
	// send flush (default DefaultBatchSize, capped at 64). 1 degenerates
	// to one datagram per syscall — the per-packet baseline.
	BatchSize int
	// FlushWindow enables send-side batching: frames queue on the
	// endpoint and are written by one sendmmsg when BatchSize accumulate
	// (size flush) or when this window elapses since the queue went
	// non-empty (window flush), whichever is first. 0 (the default)
	// keeps today's per-packet behavior: every Send is one socket write,
	// and a Send error is returned from that very call. With batching, a
	// write error surfaces on the Send that triggered the size flush, or
	// is counted (SendErrors) when a window flush hits it.
	FlushWindow time.Duration
	// TrainBytes bounds frame-train coalescing on the batched send path:
	// consecutive same-destination frames in a flush are packed into one
	// wire datagram up to this size, amortizing the kernel's
	// per-datagram cost across the train. 0 picks the default
	// (maxTrainBytes) when FlushWindow is active; negative disables
	// coalescing (every frame its own datagram — set this, or a value
	// near the path MTU, on real networks where oversized datagrams
	// would IP-fragment; loopback carries 60 KiB trains natively).
	TrainBytes int
}

// Option configures a Provider.
type Option func(*Config)

// WithBindIP sets the local IP endpoints bind (default 127.0.0.1).
func WithBindIP(ip string) Option { return func(c *Config) { c.BindIP = ip } }

// WithQueueLen bounds the event-loop queue.
func WithQueueLen(n int) Option { return func(c *Config) { c.QueueLen = n } }

// WithSocketBuffers sets the per-socket read/write buffer sizes in bytes.
func WithSocketBuffers(read, write int) Option {
	return func(c *Config) { c.ReadBuffer, c.WriteBuffer = read, write }
}

// WithBatch sets the batch depth for recvmmsg reads and sendmmsg flushes.
func WithBatch(n int) Option { return func(c *Config) { c.BatchSize = n } }

// WithFlushWindow enables send-side batching with the given flush window
// (0 keeps the per-packet write path).
func WithFlushWindow(d time.Duration) Option { return func(c *Config) { c.FlushWindow = d } }

// WithTrainBytes bounds frame-train coalescing (see Config.TrainBytes).
func WithTrainBytes(n int) Option { return func(c *Config) { c.TrainBytes = n } }

// hostAddr is one registry entry: the OS-level address of a host's socket,
// pre-resolved into every form the send paths need so no per-packet
// conversion (or allocation) happens.
type hostAddr struct {
	udp *net.UDPAddr   // for the portable single-write path
	ap  netip.AddrPort // for WriteToUDPAddrPort (allocation-free)
	ip4 [4]byte        // for sendmmsg sockaddr construction
	prt uint16
	v4  bool
}

func newHostAddr(ua *net.UDPAddr) *hostAddr {
	ha := &hostAddr{udp: ua, ap: ua.AddrPort()}
	if ip4 := ua.IP.To4(); ip4 != nil {
		copy(ha.ip4[:], ip4)
		ha.prt = uint16(ua.Port)
		ha.v4 = true
	}
	return ha
}

// registry is the immutable host/group snapshot the send path reads. The
// maps are never mutated after publication: mutators rebuild and atomically
// swap the whole snapshot (RCU), so sendTo resolves destinations without
// taking the provider mutex per packet.
type registry struct {
	hosts  map[netapi.HostID]*hostAddr
	groups map[netapi.HostID][]netapi.HostID
}

var emptyRegistry = &registry{}

// Provider maps netapi.HostID values onto UDP addresses.
type Provider struct {
	mu     sync.Mutex
	hosts  map[netapi.HostID]*hostAddr // authoritative; mutate under mu
	eps    map[netapi.HostID]*Endpoint // locally opened endpoints
	groups map[netapi.HostID][]netapi.HostID

	// reg is the published read-mostly snapshot of hosts+groups.
	reg atomic.Pointer[registry]

	cfg     Config
	loop    chan func()
	quit    chan struct{} // closed by Close after readers drain
	done    chan struct{} // closed when the loop goroutine exits
	closed  atomic.Bool
	readers sync.WaitGroup
	clock   clock

	// Session timers (loop-confined): a timer wheel on the clock's time
	// base, fired by run before each loop job, and one runtime timer that
	// wakes the loop for the earliest deadline. wakeAt is the deadline the
	// wake timer is armed for, noWake when it is not armed.
	timers *sim.Kernel
	wake   *time.Timer
	wakeAt time.Duration

	// droppedPosts counts loop-queue overflow drops provider-wide (the
	// per-endpoint Dropped counters attribute the datagrams to a
	// receiver; this counts shed posts, i.e. whole batches).
	droppedPosts atomic.Uint64

	// Batch datapath counters (see BatchCounters).
	datagramsIn   atomic.Uint64 // wire datagrams read from sockets, provider-wide
	datagramsOut  atomic.Uint64 // wire datagrams written to sockets, provider-wide
	framesIn      atomic.Uint64 // protocol frames received (trains expanded)
	framesOut     atomic.Uint64 // protocol frames sent (trains counted per frame)
	batchesIn     atomic.Uint64 // batch reads that returned >= 1 datagram
	batchesOut    atomic.Uint64 // batch flush writes
	flushesSize   atomic.Uint64 // flushes triggered by a full queue
	flushesWindow atomic.Uint64 // flushes triggered by the flush window
	skippedCopies atomic.Uint64 // rx copies skipped (no receiver / full queue)
	fanoutErrs    atomic.Uint64 // per-member multicast send failures
	sendErrs      atomic.Uint64 // socket write errors on flush paths
	trainsOut     atomic.Uint64 // coalesced train datagrams written
	trainFrames   atomic.Uint64 // frames that rode in trains
	rehomedFrames atomic.Uint64 // queued frames redirected to a re-registered peer
}

// New returns a provider with a running event loop.
func New(opts ...Option) *Provider {
	cfg := Config{BindIP: "127.0.0.1", QueueLen: 4096, BatchSize: DefaultBatchSize}
	for _, fn := range opts {
		fn(&cfg)
	}
	if cfg.BindIP == "" {
		cfg.BindIP = "127.0.0.1"
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 4096
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if cfg.BatchSize > maxBatch {
		cfg.BatchSize = maxBatch
	}
	if cfg.FlushWindow < 0 {
		cfg.FlushWindow = 0
	}
	switch {
	case cfg.TrainBytes < 0:
		cfg.TrainBytes = 0 // coalescing disabled
	case cfg.TrainBytes == 0:
		cfg.TrainBytes = maxTrainBytes
	case cfg.TrainBytes > maxTrainBytes:
		cfg.TrainBytes = maxTrainBytes
	}
	p := &Provider{
		hosts:  make(map[netapi.HostID]*hostAddr),
		eps:    make(map[netapi.HostID]*Endpoint),
		groups: make(map[netapi.HostID][]netapi.HostID),
		cfg:    cfg,
		loop:   make(chan func(), cfg.QueueLen),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
		timers: sim.NewKernel(0),
		wake:   time.NewTimer(time.Hour),
		wakeAt: noWake,
	}
	p.wake.Stop() // armWake arms it for the first deadline
	p.reg.Store(emptyRegistry)
	p.clock = clock{p: p, epoch: time.Now()}
	go p.run()
	return p
}

// publishLocked rebuilds the immutable registry snapshot from the
// authoritative maps. Call with p.mu held after any mutation.
func (p *Provider) publishLocked() {
	r := &registry{
		hosts:  make(map[netapi.HostID]*hostAddr, len(p.hosts)),
		groups: make(map[netapi.HostID][]netapi.HostID, len(p.groups)),
	}
	for h, a := range p.hosts {
		r.hosts[h] = a
	}
	for g, m := range p.groups {
		r.groups[g] = m
	}
	p.reg.Store(r)
}

// run is the event loop. Due timers fire before each job, so a callback
// never runs later than the job that follows its deadline; after each job
// the wake timer is pointed at the earliest deadline if that moved earlier.
func (p *Provider) run() {
	for {
		select {
		case fn := <-p.loop:
			p.fireTimers()
			fn()
		case <-p.wake.C:
			p.wakeAt = noWake
			p.fireTimers()
		case <-p.quit:
			// Drain whatever was queued before shutdown, then stop. Timers
			// no longer fire: none may run after Close returns.
			for {
				select {
				case fn := <-p.loop:
					fn()
				default:
					p.wake.Stop()
					close(p.done)
					return
				}
			}
		}
		p.armWake()
	}
}

// fireTimers runs every timer whose deadline has passed.
func (p *Provider) fireTimers() { p.timers.RunUntil(p.clock.Now()) }

// noWake is Provider.wakeAt while the wake timer is not armed.
const noWake = time.Duration(math.MaxInt64)

// armWake re-arms the wake timer when the earliest deadline is earlier than
// the one it is armed for. A deadline that moved later, or was cancelled,
// keeps the armed wake: it fires early, finds nothing due, and re-arms.
func (p *Provider) armWake() {
	at, ok := p.timers.NextAt()
	if !ok || at >= p.wakeAt {
		return
	}
	p.wakeAt = at
	p.wake.Reset(at - p.clock.Now())
}

// Post schedules fn onto the provider's event loop (applications use this to
// interact with connections safely). It reports whether the closure was
// accepted; after Close it is a no-op returning false — there is no hidden
// recover, so real panics in protocol code propagate and crash loudly.
func (p *Provider) Post(fn func()) bool {
	if p.closed.Load() {
		return false
	}
	select {
	case p.loop <- fn:
		return true
	case <-p.quit:
		return false
	}
}

// tryPost is the packet path: never blocks; a full queue drops.
func (p *Provider) tryPost(fn func()) bool {
	if p.closed.Load() {
		return false
	}
	select {
	case p.loop <- fn:
		return true
	default:
		p.droppedPosts.Add(1)
		return false
	}
}

// loopFull reports whether the event-loop queue has no room right now. The
// reader consults it before copying a batch: when the queue is full the
// batch would be shed anyway, so the copies are skipped (and counted).
func (p *Provider) loopFull() bool { return len(p.loop) == cap(p.loop) }

// Wait runs fn on the loop and blocks until it completes (or the provider
// shuts down first, in which case fn may not run).
func (p *Provider) Wait(fn func()) {
	ch := make(chan struct{})
	if !p.Post(func() { fn(); close(ch) }) {
		return
	}
	select {
	case <-ch:
	case <-p.done:
	}
}

// DroppedPosts reports how many packet-batch upcalls the bounded loop queue
// shed.
func (p *Provider) DroppedPosts() uint64 { return p.droppedPosts.Load() }

// BatchCounters is a snapshot of the batched-datapath accounting.
type BatchCounters struct {
	// DatagramsIn / DatagramsOut are provider-wide wire-datagram totals;
	// FramesIn / FramesOut are protocol frames (a train datagram carries
	// many frames, so FramesOut / DatagramsOut is the send coalescing
	// factor).
	DatagramsIn, DatagramsOut uint64
	FramesIn, FramesOut       uint64
	// BatchesIn is how many receive batches arrived (DatagramsIn /
	// BatchesIn is the average rx batch depth — the syscall amortization
	// factor). BatchesOut counts send flushes the same way.
	BatchesIn, BatchesOut uint64
	// FlushesSize / FlushesWindow split BatchesOut by trigger: queue
	// reached BatchSize vs. the FlushWindow timer fired.
	FlushesSize, FlushesWindow uint64
	// SkippedCopies counts received datagrams dropped before their
	// payload copy: no receiver installed, or the loop queue already
	// full.
	SkippedCopies uint64
	// FanoutErrors counts per-member multicast send failures (the send
	// continues to remaining members; see Endpoint.Send).
	FanoutErrors uint64
	// SendErrors counts socket write errors on the batched flush path.
	SendErrors uint64
	// TrainsOut / TrainFrames count frame-train coalescing: TrainFrames
	// frames left the provider inside TrainsOut wire datagrams
	// (TrainFrames / TrainsOut is the average train depth).
	TrainsOut, TrainFrames uint64
}

// BatchCounters snapshots the batched-datapath accounting.
func (p *Provider) BatchCounters() BatchCounters {
	return BatchCounters{
		DatagramsIn:   p.datagramsIn.Load(),
		DatagramsOut:  p.datagramsOut.Load(),
		FramesIn:      p.framesIn.Load(),
		FramesOut:     p.framesOut.Load(),
		BatchesIn:     p.batchesIn.Load(),
		BatchesOut:    p.batchesOut.Load(),
		FlushesSize:   p.flushesSize.Load(),
		FlushesWindow: p.flushesWindow.Load(),
		SkippedCopies: p.skippedCopies.Load(),
		FanoutErrors:  p.fanoutErrs.Load(),
		SendErrors:    p.sendErrs.Load(),
		TrainsOut:     p.trainsOut.Load(),
		TrainFrames:   p.trainFrames.Load(),
	}
}

// SkippedCopies reports received datagrams dropped before their payload
// copy (no receiver installed, or loop queue already full).
func (p *Provider) SkippedCopies() uint64 { return p.skippedCopies.Load() }

// FanoutErrors reports per-member multicast send failures.
func (p *Provider) FanoutErrors() uint64 { return p.fanoutErrs.Load() }

// MetricCounters returns the provider's counters as read-at-scrape-time
// closures keyed by dotted metric names, in the shape the observability
// plane's Observe.Counters field consumes — pass the result (or a merge of
// several providers') to adaptive.WithObservability to publish the batch
// datapath on /metrics. avg_batch_in_milli is the average receive batch
// depth ×1000 (counters are integral), i.e. 32000 means a full
// BatchSize=32 on every recvmmsg.
func (p *Provider) MetricCounters() map[string]func() uint64 {
	return map[string]func() uint64{
		"udpnet.datagrams_in":   p.datagramsIn.Load,
		"udpnet.datagrams_out":  p.datagramsOut.Load,
		"udpnet.frames_in":      p.framesIn.Load,
		"udpnet.frames_out":     p.framesOut.Load,
		"udpnet.batches_in":     p.batchesIn.Load,
		"udpnet.batches_out":    p.batchesOut.Load,
		"udpnet.flushes_size":   p.flushesSize.Load,
		"udpnet.flushes_window": p.flushesWindow.Load,
		"udpnet.skipped_copies": p.skippedCopies.Load,
		"udpnet.fanout_errors":  p.fanoutErrs.Load,
		"udpnet.send_errors":    p.sendErrs.Load,
		"udpnet.dropped_posts":  p.droppedPosts.Load,
		"udpnet.trains_out":     p.trainsOut.Load,
		"udpnet.train_frames":   p.trainFrames.Load,
		"udpnet.rehomed_frames": p.rehomedFrames.Load,
		"udpnet.avg_batch_in_milli": func() uint64 {
			b := p.batchesIn.Load()
			if b == 0 {
				return 0
			}
			return 1000 * p.datagramsIn.Load() / b
		},
	}
}

// Close shuts the provider down in order: close every endpoint (which
// flushes its send queue and unblocks its reader), wait for the readers to
// drain, then stop the event loop and wait for it to finish the queued
// work. The loop stops firing timers and stops its wake timer on the way
// out, so no upcall or timer callback runs after Close returns. Idempotent.
func (p *Provider) Close() {
	if p.closed.Swap(true) {
		<-p.done
		return
	}
	p.mu.Lock()
	eps := make([]*Endpoint, 0, len(p.eps))
	for _, ep := range p.eps {
		eps = append(eps, ep)
	}
	p.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
	p.readers.Wait()
	close(p.quit)
	<-p.done
}

// RegisterGroup declares a software multicast group: sends to it fan out as
// unicast datagrams to each member (usable where IP multicast is not).
func (p *Provider) RegisterGroup(group netapi.HostID, members ...netapi.HostID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.groups[group] = append([]netapi.HostID(nil), members...)
	p.publishLocked()
}

// RegisterHost maps a remote host ID onto a UDP address ("10.0.0.7:9000"),
// so endpoints on this provider can reach peers opened by another provider
// instance on a different machine. Locally opened hosts register themselves.
func (p *Provider) RegisterHost(host netapi.HostID, addr string) error {
	ua, err := net.ResolveUDPAddr("udp4", addr)
	if err != nil {
		return fmt.Errorf("udpnet: resolving %q: %w", addr, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, local := p.eps[host]; local {
		return fmt.Errorf("udpnet: host %v is opened locally", host)
	}
	p.hosts[host] = newHostAddr(ua)
	p.publishLocked()
	return nil
}

// clock is wall time relative to the provider epoch.
type clock struct {
	p     *Provider
	epoch time.Time
}

var _ netapi.Clock = clock{}

func (c clock) Now() time.Duration { return time.Since(c.epoch) }

// AfterFunc is safe from any goroutine (the impair reorder path arms from
// Send; wrapping clocks arm through it). Session timers on the loop use
// TimerWheel instead, which allocates nothing per arm.
func (c clock) AfterFunc(d time.Duration, fn func()) netapi.Timer {
	t := &timer{}
	// Timer callbacks are control-plane work: use the blocking Post (a
	// full queue delays the timer rather than dropping protocol events).
	t.t = time.AfterFunc(d, func() { c.p.Post(fn) })
	return t
}

// TimerWheel returns the provider's loop-owned timer wheel. Arm it only
// from the event loop, at absolute deadlines on this clock's time base
// (ScheduleArgAt(Now()+d, ...)); the loop fires them once Now reaches them.
// The kernel's own Now lags the wall clock (it moves only when the loop runs
// the wheel), so read time from the clock. event.NewManager detects this
// accessor.
func (c clock) TimerWheel() *sim.Kernel { return c.p.timers }

type timer struct{ t *time.Timer }

func (t *timer) Stop() bool { return t.t.Stop() }

// Clock implements netapi.Provider.
func (p *Provider) Clock() netapi.Clock { return p.clock }

// outMsg is one wire datagram: either a single framed packet or a
// coalesced train of them. On the flush queue (ep.sq) every entry is a
// single frame; packTrains turns runs of them into train entries on the
// wire queue (ep.txq).
type outMsg struct {
	frame   []byte // pooled slab; returned after the flush write
	dst     *hostAddr
	dstHost netapi.HostID // re-resolved against the registry at flush time
	frames  int           // protocol frames inside (1 for a single, n for a train)
}

// Endpoint is a UDP-backed netapi.Endpoint.
type Endpoint struct {
	p      *Provider
	host   netapi.HostID
	port   uint16
	sock   *net.UDPConn
	closed atomic.Bool

	batch      int           // batch depth (rx ring and tx flush queue)
	flushWin   time.Duration // 0 = per-packet sends
	trainBytes int           // frame-train coalescing budget (0 = off)

	// recv/recvBatch hold the receive upcalls; written by SetReceiver /
	// SetBatchReceiver (any goroutine, including the loop itself) and
	// loaded by the batch closures, which invoke them on the loop
	// goroutine only. When both are installed the batch upcall wins.
	recv      atomic.Value // of recvBox
	recvBatch atomic.Value // of batchBox

	// The send flush queue. sendMu is held across the flush write so
	// concurrent size- and window-flushes cannot reorder batches. sq
	// holds individual frames; txq is the per-flush scratch of wire
	// datagrams after train coalescing. Frames and trains are views into
	// arena, which every flush empties for reuse.
	sendMu     sync.Mutex
	sq         []outMsg
	txq        []outMsg
	arena      []byte
	flushTimer *time.Timer
	bio        batchIO // platform-specific batch-syscall state (batch_*.go)

	sent     atomic.Uint64 // datagrams written to the socket
	received atomic.Uint64 // datagrams read from the socket
	dropped  atomic.Uint64 // datagrams shed by the bounded loop queue
}

var (
	_ netapi.Endpoint      = (*Endpoint)(nil)
	_ netapi.BatchEndpoint = (*Endpoint)(nil)
)

// SentCount reports datagrams successfully written to the socket.
func (ep *Endpoint) SentCount() uint64 { return ep.sent.Load() }

// ReceivedCount reports datagrams read from the socket (before any queue
// shedding).
func (ep *Endpoint) ReceivedCount() uint64 { return ep.received.Load() }

// DroppedCount reports datagrams shed because the event-loop queue was full.
func (ep *Endpoint) DroppedCount() uint64 { return ep.dropped.Load() }

// Open binds a UDP socket for the host on the provider's bind address and
// starts its reader. The netapi port is carried inside each datagram header
// byte pair (hosts are distinguished by UDP port, so one OS port serves one
// host).
func (p *Provider) Open(host netapi.HostID, port uint16) (netapi.Endpoint, error) {
	if p.closed.Load() {
		return nil, errors.New("udpnet: provider closed")
	}
	ip := net.ParseIP(p.cfg.BindIP)
	if ip == nil {
		return nil, fmt.Errorf("udpnet: invalid bind IP %q", p.cfg.BindIP)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, busy := p.hosts[host]; busy {
		return nil, fmt.Errorf("udpnet: host %v already open (one endpoint per host)", host)
	}
	sock, err := net.ListenUDP("udp4", &net.UDPAddr{IP: ip, Port: 0})
	if err != nil {
		return nil, err
	}
	if p.cfg.ReadBuffer > 0 {
		if err := sock.SetReadBuffer(p.cfg.ReadBuffer); err != nil {
			sock.Close()
			return nil, fmt.Errorf("udpnet: read buffer: %w", err)
		}
	}
	if p.cfg.WriteBuffer > 0 {
		if err := sock.SetWriteBuffer(p.cfg.WriteBuffer); err != nil {
			sock.Close()
			return nil, fmt.Errorf("udpnet: write buffer: %w", err)
		}
	}
	if port == 0 {
		port = 49152
	}
	ep := &Endpoint{
		p: p, host: host, port: port, sock: sock,
		batch: p.cfg.BatchSize, flushWin: p.cfg.FlushWindow,
		trainBytes: p.cfg.TrainBytes,
		sq:         make([]outMsg, 0, p.cfg.BatchSize),
		txq:        make([]outMsg, 0, p.cfg.BatchSize),
	}
	if err := ep.bio.init(ep); err != nil {
		sock.Close()
		return nil, err
	}
	p.hosts[host] = newHostAddr(sock.LocalAddr().(*net.UDPAddr))
	p.eps[host] = ep
	p.publishLocked()
	p.readers.Add(1)
	go ep.reader()
	return ep, nil
}

// rxBatch is one posted receive batch: pooled, with its loop closure bound
// once at construction so the steady-state packet path allocates nothing.
// Payloads are copied into buf, which the batch keeps across reuse, so a
// batch costs one pool round trip however many packets it carries.
type rxBatch struct {
	ep   *Endpoint
	pkts []netapi.Packet // Data fields are views into buf
	buf  []byte
	run  func()
}

var rxBatchPool sync.Pool // New set in init (direct literal would cycle)

func init() {
	rxBatchPool.New = func() any {
		b := &rxBatch{}
		b.run = b.deliver
		return b
	}
}

func getRxBatch() *rxBatch {
	return rxBatchPool.Get().(*rxBatch)
}

func putRxBatch(b *rxBatch) {
	b.ep = nil
	rxBatchPool.Put(b)
}

// carve returns the next n bytes of *arena. When the arena is full it
// moves to a larger array; views already handed out keep the old one.
func carve(arena *[]byte, n int) []byte {
	a := *arena
	s := len(a)
	if s+n > cap(a) {
		a = make([]byte, 0, 2*cap(a)+n)
		s = 0
	}
	a = a[:s+n]
	*arena = a
	return a[s : s+n : s+n]
}

// release recycles the batch with its buffer.
func (b *rxBatch) release() {
	clear(b.pkts)
	b.pkts = b.pkts[:0]
	putRxBatch(b)
}

// deliver runs on the loop goroutine: one closure per batch, the whole
// batch through the batch upcall when one is installed, else the per-packet
// receiver per element.
func (b *rxBatch) deliver() {
	ep := b.ep
	if !ep.closed.Load() {
		if bb, _ := ep.recvBatch.Load().(batchBox); bb.fn != nil {
			bb.fn(b.pkts)
		} else if rb, _ := ep.recv.Load().(recvBox); rb.fn != nil {
			for i := range b.pkts {
				rb.fn(b.pkts[i].Data, b.pkts[i].From)
			}
		}
	}
	b.release()
}

// reader pumps datagram batches into the event loop. It owns its socket
// until the socket closes, then signals the provider's reader WaitGroup —
// Close waits on that before stopping the loop, so shutdown never strands
// an upcall.
func (ep *Endpoint) reader() {
	defer ep.p.readers.Done()
	rx := ep.bio.newRxState(ep)
	for {
		n, err := ep.readBatch(rx)
		if err != nil {
			return // socket closed
		}
		if n == 0 {
			continue
		}
		ep.dispatch(rx, n)
	}
}

// parseSrc decodes a 6-byte frame header: srcHost uint32 | srcPort uint16.
func parseSrc(hdr []byte) netapi.Addr {
	return netapi.Addr{
		Host: netapi.HostID(hdr[0])<<24 | netapi.HostID(hdr[1])<<16 | netapi.HostID(hdr[2])<<8 | netapi.HostID(hdr[3]),
		Port: uint16(hdr[4])<<8 | uint16(hdr[5]),
	}
}

// isTrain reports whether a wire datagram is a coalesced frame train.
func isTrain(buf []byte, ln int) bool {
	return ln >= trainHdr &&
		buf[0] == trainMarker && buf[1] == trainMarker &&
		buf[2] == trainMarker && buf[3] == trainMarker
}

// wireFrameCount is the number of protocol frames a wire datagram claims
// to carry (pre-copy, header-only inspection).
func wireFrameCount(buf []byte, ln int) int {
	if isTrain(buf, ln) {
		return int(buf[4])<<8 | int(buf[5])
	}
	if ln >= frameOverhead {
		return 1
	}
	return 0
}

// expandTrain copies each record of a train datagram into the batch's
// buffer and appends it to the batch. Truncated or malformed records abort
// the rest of the train (the damage cannot be re-synchronized).
func expandTrain(b *rxBatch, buf []byte, ln int) {
	cnt := int(buf[4])<<8 | int(buf[5])
	src := parseSrc(buf[6:trainHdr])
	off := trainHdr
	for k := 0; k < cnt; k++ {
		if off+trainRecHdr > ln {
			return
		}
		rl := int(buf[off])<<8 | int(buf[off+1])
		off += trainRecHdr
		if off+rl > ln {
			return
		}
		pkt := carve(&b.buf, rl)
		copy(pkt, buf[off:off+rl])
		off += rl
		b.pkts = append(b.pkts, netapi.Packet{Data: pkt, From: src})
	}
}

// dispatch copies one received batch into a pooled batch buffer —
// expanding frame trains back into individual packets — and posts a single
// closure for it, shedding (with counts, and without copying) when nobody
// can consume it.
func (ep *Endpoint) dispatch(rx *rxState, n int) {
	frames := 0
	for i := 0; i < n; i++ {
		frames += wireFrameCount(rx.slot(i), rx.size(i))
	}
	if frames == 0 {
		return
	}
	ep.received.Add(uint64(frames))
	ep.p.framesIn.Add(uint64(frames))
	ep.p.datagramsIn.Add(uint64(n))
	ep.p.batchesIn.Add(1)

	// Copy-avoidance checks (the authoritative drop still happens at
	// tryPost): no receiver installed, or the loop queue already full —
	// either way this batch cannot be consumed, so skip the copies.
	rb, _ := ep.recv.Load().(recvBox)
	bb, _ := ep.recvBatch.Load().(batchBox)
	if (rb.fn == nil && bb.fn == nil) || ep.closed.Load() {
		ep.p.skippedCopies.Add(uint64(frames))
		return
	}
	if ep.p.loopFull() {
		ep.p.skippedCopies.Add(uint64(frames))
		ep.dropped.Add(uint64(frames))
		return
	}

	b := getRxBatch()
	b.ep = ep
	b.buf = b.buf[:0]
	for i := 0; i < n; i++ {
		ln := rx.size(i)
		buf := rx.slot(i)
		if isTrain(buf, ln) {
			expandTrain(b, buf, ln)
			continue
		}
		if ln < frameOverhead {
			continue
		}
		pkt := carve(&b.buf, ln-frameOverhead)
		copy(pkt, buf[frameOverhead:ln])
		b.pkts = append(b.pkts, netapi.Packet{Data: pkt, From: parseSrc(buf)})
	}
	if len(b.pkts) == 0 {
		putRxBatch(b)
		return
	}
	if !ep.p.tryPost(b.run) {
		ep.dropped.Add(uint64(len(b.pkts)))
		b.release()
	}
}

// Send frames and transmits pkt toward dst. For multicast destinations the
// send fans out to every group member and keeps going past per-member
// failures: the errors are aggregated (errors.Join) and counted, so one
// dead peer cannot starve the rest of the group.
func (ep *Endpoint) Send(pkt []byte, dst netapi.Addr) error {
	if ep.closed.Load() {
		return errors.New("udpnet: endpoint closed")
	}
	reg := ep.p.reg.Load()
	if dst.Host.IsMulticast() {
		members := reg.groups[dst.Host]
		if members == nil {
			return fmt.Errorf("udpnet: unknown group %v", dst.Host)
		}
		var errs []error
		for _, m := range members {
			if m == ep.host {
				continue
			}
			if err := ep.sendTo(reg, pkt, netapi.Addr{Host: m, Port: dst.Port}); err != nil {
				ep.p.fanoutErrs.Add(1)
				errs = append(errs, fmt.Errorf("udpnet: group %v member %v: %w", dst.Host, m, err))
			}
		}
		return errors.Join(errs...)
	}
	return ep.sendTo(reg, pkt, dst)
}

func (ep *Endpoint) sendTo(reg *registry, pkt []byte, dst netapi.Addr) error {
	ha := reg.hosts[dst.Host]
	if ha == nil {
		return fmt.Errorf("udpnet: unknown host %v", dst.Host)
	}
	if ep.flushWin == 0 || ep.batch <= 1 {
		// Per-packet path: one write per Send, error straight back, wire
		// format bitwise identical to the pre-batching provider.
		frame := message.GetSlab(frameOverhead + len(pkt))
		ep.encodeFrame(frame, pkt)
		_, err := ep.sock.WriteToUDPAddrPort(frame, ha.ap)
		message.PutSlab(frame)
		if err == nil {
			ep.sent.Add(1)
			ep.p.datagramsOut.Add(1)
			ep.p.framesOut.Add(1)
		}
		return err
	}
	return ep.enqueue(pkt, ha, dst.Host)
}

// encodeFrame writes the frame srcHost | srcPort | pkt into frame, which
// holds exactly frameOverhead+len(pkt) bytes.
func (ep *Endpoint) encodeFrame(frame, pkt []byte) {
	frame[0] = byte(ep.host >> 24)
	frame[1] = byte(ep.host >> 16)
	frame[2] = byte(ep.host >> 8)
	frame[3] = byte(ep.host)
	frame[4] = byte(ep.port >> 8)
	frame[5] = byte(ep.port)
	copy(frame[frameOverhead:], pkt)
}

// maxArena bounds the send arena an endpoint keeps between flushes.
const maxArena = 1 << 20

// enqueue frames pkt into the send arena and adds it to the flush queue,
// flushing when the queue reaches the batch size and arming the window
// timer when it goes non-empty.
func (ep *Endpoint) enqueue(pkt []byte, dst *hostAddr, dstHost netapi.HostID) error {
	ep.sendMu.Lock()
	defer ep.sendMu.Unlock()
	if ep.closed.Load() {
		return errors.New("udpnet: endpoint closed")
	}
	frame := carve(&ep.arena, frameOverhead+len(pkt))
	ep.encodeFrame(frame, pkt)
	ep.sq = append(ep.sq, outMsg{frame: frame, dst: dst, dstHost: dstHost, frames: 1})
	if len(ep.sq) >= ep.batch {
		ep.p.flushesSize.Add(1)
		return ep.flushLocked()
	}
	if len(ep.sq) == 1 {
		if ep.flushTimer == nil {
			ep.flushTimer = time.AfterFunc(ep.flushWin, ep.onFlushTimer)
		} else {
			ep.flushTimer.Reset(ep.flushWin)
		}
	}
	return nil
}

// onFlushTimer drains whatever accumulated during the flush window.
func (ep *Endpoint) onFlushTimer() {
	ep.sendMu.Lock()
	defer ep.sendMu.Unlock()
	if len(ep.sq) == 0 || ep.closed.Load() {
		return
	}
	ep.p.flushesWindow.Add(1)
	if err := ep.flushLocked(); err != nil {
		ep.p.sendErrs.Add(1)
	}
}

// packTrains drains the frame queue into the wire queue, coalescing
// consecutive same-destination frames into train datagrams within the
// budget. Singles pass their slab through unchanged (and keep the
// pre-train wire format). Called with sendMu held.
func (ep *Endpoint) packTrains() {
	sq := ep.sq
	i := 0
	for i < len(sq) {
		j := i + 1
		if ep.trainBytes > 0 {
			total := trainHdr + trainRecHdr + (len(sq[i].frame) - frameOverhead)
			for j < len(sq) && j-i < maxTrainCount && sq[j].dst == sq[i].dst {
				rec := trainRecHdr + (len(sq[j].frame) - frameOverhead)
				if total+rec > ep.trainBytes {
					break
				}
				total += rec
				j++
			}
		}
		if j == i+1 {
			ep.txq = append(ep.txq, sq[i])
		} else {
			ep.txq = append(ep.txq, ep.buildTrain(sq[i:j]))
			ep.p.trainsOut.Add(1)
			ep.p.trainFrames.Add(uint64(j - i))
		}
		i = j
	}
	for k := range sq {
		sq[k] = outMsg{}
	}
	ep.sq = sq[:0]
}

// buildTrain packs a same-destination run into one train datagram in the
// send arena. The shared 6-byte source header is taken from the first
// frame (all frames from this endpoint carry the same one).
func (ep *Endpoint) buildTrain(run []outMsg) outMsg {
	total := trainHdr
	for k := range run {
		total += trainRecHdr + len(run[k].frame) - frameOverhead
	}
	t := carve(&ep.arena, total)
	t[0], t[1], t[2], t[3] = trainMarker, trainMarker, trainMarker, trainMarker
	n := len(run)
	t[4], t[5] = byte(n>>8), byte(n)
	copy(t[6:trainHdr], run[0].frame[:frameOverhead])
	off := trainHdr
	for k := range run {
		pl := run[k].frame[frameOverhead:]
		t[off] = byte(len(pl) >> 8)
		t[off+1] = byte(len(pl))
		off += trainRecHdr
		copy(t[off:], pl)
		off += len(pl)
	}
	return outMsg{frame: t, dst: run[0].dst, frames: n}
}

// flushLocked coalesces the queued frames into wire datagrams, writes them
// with one batch syscall, and empties the send arena. Called with sendMu
// held — the lock spans the write so batches leave the socket in enqueue
// order.
func (ep *Endpoint) flushLocked() error {
	if len(ep.sq) == 0 {
		return nil
	}
	// Re-resolve queued destinations against the current registry snapshot:
	// frames enqueued before a peer re-registered (restart on a new socket)
	// must flush to its new address, not the one captured at enqueue time.
	// Entries re-resolve to the snapshot's shared *hostAddr, so packTrains'
	// pointer-equality coalescing keeps working.
	reg := ep.p.reg.Load()
	for i := range ep.sq {
		if ha := reg.hosts[ep.sq[i].dstHost]; ha != nil && ha != ep.sq[i].dst {
			ep.sq[i].dst = ha
			ep.p.rehomedFrames.Add(1)
		}
	}
	ep.p.batchesOut.Add(1)
	ep.packTrains()
	wrote, err := ep.writeBatch(ep.txq)
	var frames uint64
	for i := 0; i < wrote; i++ {
		frames += uint64(ep.txq[i].frames)
	}
	ep.sent.Add(frames)
	ep.p.framesOut.Add(frames)
	ep.p.datagramsOut.Add(uint64(wrote))
	clear(ep.txq)
	ep.txq = ep.txq[:0]
	ep.arena = ep.arena[:0]
	if cap(ep.arena) > maxArena {
		ep.arena = nil // one burst of jumbo frames must not pin memory for good
	}
	return err
}

// writeBatchPortable is the single-write drain shared by the fallback
// backend and the (unreachable today) non-IPv4 escape hatch: datagrams go
// out one WriteToUDPAddrPort at a time, in order.
func (ep *Endpoint) writeBatchPortable(msgs []outMsg) (int, error) {
	sent := 0
	for i := range msgs {
		if _, err := ep.sock.WriteToUDPAddrPort(msgs[i].frame, msgs[i].dst.ap); err != nil {
			return sent, err
		}
		sent++
	}
	return sent, nil
}

// Flush forces any queued frames out now (size/window semantics are
// bypassed). Useful in tests and before latency-sensitive quiesce points.
func (ep *Endpoint) Flush() error {
	ep.sendMu.Lock()
	defer ep.sendMu.Unlock()
	if ep.closed.Load() {
		return nil
	}
	return ep.flushLocked()
}

// recvBox wraps the receiver so atomic.Value can store a nil upcall.
type recvBox struct{ fn netapi.Receiver }

// batchBox wraps the batch receiver the same way.
type batchBox struct{ fn netapi.BatchReceiver }

// SetReceiver installs the per-packet receive upcall. Safe from any
// goroutine (the slot is atomic); the upcall itself always runs on the
// event loop.
func (ep *Endpoint) SetReceiver(r netapi.Receiver) {
	ep.recv.Store(recvBox{fn: r})
}

// SetBatchReceiver installs the batched receive upcall (netapi.
// BatchEndpoint). When installed it takes precedence over the per-packet
// receiver: each posted batch is delivered in a single call, with packet
// buffers valid only for its duration.
func (ep *Endpoint) SetBatchReceiver(r netapi.BatchReceiver) {
	ep.recvBatch.Store(batchBox{fn: r})
}

// LocalAddr returns the endpoint's netapi address.
func (ep *Endpoint) LocalAddr() netapi.Addr {
	return netapi.Addr{Host: ep.host, Port: ep.port}
}

// UDPAddr returns the endpoint's OS-level socket address (what a remote
// provider would RegisterHost).
func (ep *Endpoint) UDPAddr() *net.UDPAddr { return ep.sock.LocalAddr().(*net.UDPAddr) }

// PathMTU reports the loopback-safe datagram budget.
func (ep *Endpoint) PathMTU(netapi.Addr) int { return 1400 }

// Close flushes any queued sends, shuts the socket, and unregisters the
// host. Idempotent and safe from any goroutine; the reader goroutine exits
// once the socket read fails.
func (ep *Endpoint) Close() error {
	if ep.closed.Swap(true) {
		return nil
	}
	// Drain the tail of the flush queue before the socket goes away. The
	// closed flag is already set, so no new frames can enqueue behind us.
	ep.sendMu.Lock()
	if ep.flushTimer != nil {
		ep.flushTimer.Stop()
	}
	ep.flushLocked()
	ep.sendMu.Unlock()
	ep.p.mu.Lock()
	delete(ep.p.hosts, ep.host)
	delete(ep.p.eps, ep.host)
	ep.p.publishLocked()
	ep.p.mu.Unlock()
	return ep.sock.Close()
}
