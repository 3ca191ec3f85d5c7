package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"adaptive"
	"adaptive/internal/netapi"
	"adaptive/internal/udpnet"
)

// The live workloads run the whole stack over UDP loopback: one udpnet
// provider carries a client host and a server host (batched datapath, frame
// trains on), so every PDU crosses a real socket twice and all protocol work
// runs on the provider's single event loop.

const (
	liveSetups      = 101                    // timed set-ups per pass; setup_s is their median
	liveWarmSetups  = 20                     // untimed set-ups first: they warm the Go runtime
	liveWarmup      = time.Second            // traffic before the measured window
	liveDrain       = 5 * time.Second        // longest wait for in-flight messages
	liveFlushWindow = 200 * time.Microsecond // udpnet send-batching window
	liveStallLimit  = 10 * time.Second       // establishment deadline
)

// livePath is what MANTTS is told about the loopback path.
var livePath = adaptive.StaticPathInfo{Bandwidth: 1e9, RTT: time.Millisecond, MTU: 1500}

// liveRig is one provider with a client and a server node and the sessions
// dialed between them.
type liveRig struct {
	prov           *udpnet.Provider
	tr             *Tracer
	client, server *adaptive.Node
	conns          []*adaptive.Conn // client side, in dial order
	accepted       []*adaptive.Conn // server side, in accept order
	dialUs         []float64
	establishMs    []float64
}

// newLiveRig brings up the provider and both nodes, has the server listen
// on one port per ACD, dials every ACD from the client and returns once all
// sessions are established. accept wires a server-side session; i is the
// index of the ACD it answers.
func newLiveRig(seed int64, tr *Tracer, acds func(server adaptive.Addr) []*adaptive.ACD,
	accept func(i int, c *adaptive.Conn)) (*liveRig, error) {
	prov := udpnet.New(udpnet.WithQueueLen(1<<14), udpnet.WithSocketBuffers(4<<20, 4<<20),
		udpnet.WithBatch(32), udpnet.WithFlushWindow(liveFlushWindow))
	rig := &liveRig{prov: prov, tr: tr}
	var p netapi.Provider = prov
	if tr != nil {
		var err error
		if p, err = wrapProvider(prov, tr); err != nil {
			prov.Close()
			return nil, err
		}
	}
	var err error
	prov.Wait(func() {
		rig.client, err = adaptive.NewNode(adaptive.WithProvider(p), adaptive.WithHost(1),
			adaptive.WithSeed(seed), adaptive.WithName("bench-client"))
		if err != nil {
			return
		}
		rig.server, err = adaptive.NewNode(adaptive.WithProvider(p), adaptive.WithHost(2),
			adaptive.WithSeed(seed+1), adaptive.WithName("bench-server"))
	})
	if err != nil {
		prov.Close()
		return nil, fmt.Errorf("create nodes: %w", err)
	}
	rig.client.SeedPath(2, livePath)
	rig.server.SeedPath(1, livePath)

	ready := make(chan struct{})
	prov.Wait(func() {
		list := acds(rig.server.Addr())
		for i, acd := range list {
			i := i
			if err = rig.server.Listen(acd.RemotePort, nil, func(c *adaptive.Conn) {
				rig.accepted = append(rig.accepted, c)
				accept(i, c)
			}); err != nil {
				return
			}
		}
		dialAt := make(map[uint32]time.Time)
		pending := len(list)
		established := func(id uint32, at time.Time) {
			t0, ok := dialAt[id]
			if !ok {
				return
			}
			delete(dialAt, id)
			rig.establishMs = append(rig.establishMs, float64(at.Sub(t0).Nanoseconds())/1e6)
			if pending--; pending == 0 {
				close(ready)
			}
		}
		rig.client.Subscribe(func(id uint32, n adaptive.Notification) {
			if n.Kind == adaptive.NoteEstablished {
				established(id, time.Now())
			}
		})
		for _, acd := range list {
			t0 := time.Now()
			var c *adaptive.Conn
			if c, err = rig.client.Dial(acd, nil); err != nil {
				return
			}
			rig.dialUs = append(rig.dialUs, float64(time.Since(t0).Nanoseconds())/1e3)
			rig.conns = append(rig.conns, c)
			dialAt[c.ConnID()] = t0
			if c.Established() {
				established(c.ConnID(), time.Now())
			}
		}
	})
	if err != nil {
		rig.close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	select {
	case <-ready:
	case <-time.After(liveStallLimit):
		rig.close()
		return nil, errors.New("sessions not established in time")
	}
	return rig, nil
}

func (rig *liveRig) close() {
	rig.prov.Close()
	for _, n := range []*adaptive.Node{rig.client, rig.server} {
		if n != nil {
			n.Close()
		}
	}
}

// setUpLive runs newLiveRig liveWarmSetups+liveSetups times (once for a
// traced pass), keeps the last rig and records the wall time of the timed
// set-ups. The first set-ups of a process run several times slower while
// the runtime grows its thread pool for the providers' blocking readers;
// that is process start-up, not set-up.
func setUpLive(cfg runCfg, r *result, build func(tr *Tracer) (*liveRig, error)) (*liveRig, error) {
	warm, n := liveWarmSetups, liveWarmSetups+liveSetups
	if cfg.traced {
		warm, n = 0, 1
	}
	var rig *liveRig
	for i := 0; i < n; i++ {
		if rig != nil {
			rig.close()
		}
		var tr *Tracer
		if cfg.traced {
			tr = newTracer(cfg.seed)
		}
		runtime.GC() // no set-up pays for collecting the one before
		t0 := time.Now()
		var err error
		if rig, err = build(tr); err != nil {
			return nil, err
		}
		if i >= warm {
			r.setupS = append(r.setupS, time.Since(t0).Seconds())
		}
	}
	r.specs = map[string]string{}
	return rig, nil
}

// liveSnap is the provider-side state at one edge of the measured window.
type liveSnap struct {
	agg   spanAgg
	bc    udpnet.BatchCounters
	drops uint64
	stats adaptive.Stats // summed over every session on both hosts
}

func (rig *liveRig) snapshot() liveSnap {
	var s liveSnap
	rig.prov.Wait(func() {
		if rig.tr != nil {
			s.agg = rig.tr.agg
		}
		for _, c := range append(append([]*adaptive.Conn(nil), rig.conns...), rig.accepted...) {
			st := c.Stats()
			s.stats.Retransmissions += st.Retransmissions
			s.stats.FECRecovered += st.FECRecovered
			s.stats.GapsAbandoned += st.GapsAbandoned
		}
	})
	s.bc = rig.prov.BatchCounters()
	s.drops = rig.prov.DroppedPosts()
	return s
}

// measure runs the measured window: seconds of slices, each closed by a
// reading of the provider's delivered PDUs and the workload's good bytes.
func (rig *liveRig) measure(r *result, seconds time.Duration, good func() uint64) {
	n := int(seconds / sliceLen)
	mark := func() {
		var g uint64
		rig.prov.Wait(func() {
			g = good()
			if r.lat.end == 0 {
				r.lat.open(n)
			} else {
				r.lat.cur++
			}
		})
		r.win.mark(rig.prov.BatchCounters().FramesIn, g)
	}
	s0 := rig.snapshot()
	mark()
	for i := 0; i < n; i++ {
		time.Sleep(sliceLen)
		mark()
	}
	s1 := rig.snapshot()
	r.win.finish()
	rig.account(r, s0, s1)
}

// account fills the traced window's per-layer numbers into r.
func (rig *liveRig) account(r *result, a, b liveSnap) {
	if rig.tr == nil {
		return
	}
	r.live = true
	r.agg = b.agg.sub(a.agg)
	r.retx = b.stats.Retransmissions - a.stats.Retransmissions
	var hits, misses uint64
	rig.prov.Wait(func() { // loop-owned state
		r.spans = slices.Clone(rig.tr.log)
		for _, p := range rig.tr.pkts {
			r.pdus = append(r.pdus, slices.Clone(p))
		}
		for _, n := range []*adaptive.Node{rig.client, rig.server} {
			st := n.Stack().Synth().Stats()
			hits += st.TemplateHits
			misses += st.TemplateMiss
		}
	})
	d := func(x, y uint64) float64 { return float64(y - x) }
	r.layers = metrics{
		"mantts.dial_us_p50":            {quantile(rig.dialUs, 0.5), "us"},
		"mantts.establish_ms_p50":       {quantile(rig.establishMs, 0.5), "ms"},
		"tko.template_hit_frac":         {ratio(float64(hits), float64(hits+misses)), "ratio"},
		"reliable.fec_recovered":        {d(a.stats.FECRecovered, b.stats.FECRecovered), "count"},
		"reliable.gaps_abandoned":       {d(a.stats.GapsAbandoned, b.stats.GapsAbandoned), "count"},
		"udpnet.frames_per_datagram":    {ratio(d(a.bc.FramesOut, b.bc.FramesOut), d(a.bc.DatagramsOut, b.bc.DatagramsOut)), "count"},
		"udpnet.datagrams_per_rx_batch": {ratio(d(a.bc.DatagramsIn, b.bc.DatagramsIn), d(a.bc.BatchesIn, b.bc.BatchesIn)), "count"},
		"udpnet.window_flush_frac":      {ratio(d(a.bc.FlushesWindow, b.bc.FlushesWindow), d(a.bc.BatchesOut, b.bc.BatchesOut)), "ratio"},
		"udpnet.dropped_posts":          {d(a.drops, b.drops), "count"},
		"udpnet.send_errors":            {d(a.bc.SendErrors, b.bc.SendErrors), "count"},
		"sim.events_per_pkt":            {0, "count"},
		"sim.ns_per_event":              {0, "ns"},
		"sim.shard_skew":                {0, "ratio"},
		"netsim.link_drops":             {0, "count"},
	}
}

// drain waits until done reports true on the loop, or the drain limit.
func (rig *liveRig) drain(done func() bool) {
	deadline := time.Now().Add(liveDrain)
	for time.Now().Before(deadline) {
		var ok bool
		rig.prov.Wait(func() { ok = done() })
		if ok {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func specString(s adaptive.Spec) string {
	return fmt.Sprintf("conn=%v recovery=%v window=%v/%d order=%v checksum=%v mss=%d fec=%d rate=%.0f ackdelay=%v",
		s.ConnMgmt, s.Recovery, s.Window, s.WindowSize, s.Order, s.Checksum, s.MSS, s.FECGroup, s.RateBps, s.AckDelay)
}

// --- live-bulk ---

const (
	bulkInflight = 128 << 10 // application bytes kept outstanding
	bulkChunkMin = 12 << 10
	bulkChunkMax = 20 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// runLiveBulk is a closed loop over one reliable session: the generator
// keeps bulkInflight bytes outstanding and sends the next message each time
// one is delivered. The receiver checks every segment and hashes the
// delivered stream; after the drain the hash must match the hash of the
// seeded stream the generator sent.
func runLiveBulk(cfg runCfg) (*result, error) {
	r := &result{}
	pat := newPattern(cfg.seed)
	var (
		f        *flow
		conn     *adaptive.Conn
		rng      *rand.Rand
		tr       *Tracer
		inflight int
		stopped  bool
		sentCRC  uint32
		crc      uint32
		epoch    time.Time
	)
	refill := func() {
		for !stopped && inflight < bulkInflight {
			size := bulkChunkMin + rng.Intn(bulkChunkMax-bulkChunkMin+1)
			b := f.offer(int64(time.Since(epoch)), size)
			sentCRC = crc32.Update(sentCRC, castagnoli, b)
			inflight += len(b)
			tr.begin(spanAppSend)
			if err := conn.Send(b); err != nil {
				r.problems = append(r.problems, "send: "+err.Error())
			}
			tr.end()
		}
	}
	onData := func(data []byte, _ bool) {
		tr.begin(spanDeliver)
		crc = crc32.Update(crc, castagnoli, data)
		if _, m, done := f.receive(data); done {
			inflight -= int(m.size)
			r.lat.add(float64(int64(time.Since(epoch))-m.due) / 1e3)
			refill()
		}
		tr.end()
	}
	acds := func(srv adaptive.Addr) []*adaptive.ACD {
		return []*adaptive.ACD{{
			Participants: []adaptive.Addr{srv},
			RemotePort:   80,
			Quant:        adaptive.QuantQoS{AvgThroughputBps: 400e6, PeakThroughputBps: 1e9},
			Qual:         adaptive.QualQoS{Ordered: true},
		}}
	}
	rig, err := setUpLive(cfg, r, func(t *Tracer) (*liveRig, error) {
		return newLiveRig(cfg.seed, t, acds, func(_ int, c *adaptive.Conn) { c.OnReceive(onData) })
	})
	if err != nil {
		return nil, err
	}
	defer rig.close()
	conn, tr = rig.conns[0], rig.tr
	r.specs["bulk"] = specString(conn.Spec())
	f = newFlow(pat, conn.Spec().MSS)
	rng = rand.New(rand.NewSource(cfg.seed))
	epoch = time.Now()
	rig.prov.Wait(refill)

	time.Sleep(liveWarmup)
	rig.measure(r, cfg.seconds, func() uint64 { return f.goodBytes })

	rig.prov.Wait(func() { stopped = true })
	rig.drain(func() bool { return f.delivered == f.offered() })
	rig.prov.Wait(func() {
		r.offered, r.failed, r.corrupt = f.offered(), f.failed(), f.corrupt
		if r.failed == 0 && crc != sentCRC {
			r.problems = append(r.problems, fmt.Sprintf("bulk stream hash %08x, seeded stream %08x", crc, sentCRC))
		}
	})
	checkFlows(r, "bulk", true)
	return r, nil
}

// checkFlows turns corrupted segments into failed checks, and lost
// messages too where the path cannot lose them: reliable sessions, or the
// simulator's loss-free links. Open-loop media over a real socket may lose
// to a full event-loop queue; that loss counts in failed only.
func checkFlows(r *result, name string, lossIsError bool) {
	if r.corrupt > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%s: %d corrupted segments", name, r.corrupt))
	}
	if lossIsError && r.failed > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%s: %d of %d messages not delivered", name, r.failed, r.offered))
	}
}

// --- live-media ---

const (
	voiceRate    = 16000 // messages per second
	voiceSize    = 160
	videoRate    = 4000 // frames per second
	videoSizeMin = 200
	videoSizeMax = 2800
	mediaTick    = 200 * time.Microsecond // generator wake-up period
)

// runLiveMedia is an open loop over two sessions dialed from Table-1 ACDs:
// voice-like fixed 160 B messages and video-like variable frames. Messages
// are due on a fixed schedule; each is timed from its due time, and the
// generator's lateness against the schedule is recorded.
func runLiveMedia(cfg runCfg) (*result, error) {
	r := &result{}
	pat := newPattern(cfg.seed)
	type stream struct {
		name   string
		period time.Duration
		size   func() int
		conn   *adaptive.Conn
		f      *flow
		next   int64 // due time of the next message, ns since epoch
	}
	var (
		tr      *Tracer
		epoch   time.Time
		stopped bool
	)
	rng := rand.New(rand.NewSource(cfg.seed))
	streams := []*stream{
		{name: "voice", period: time.Second / voiceRate, size: func() int { return voiceSize }},
		{name: "video", period: time.Second / videoRate,
			size: func() int { return videoSizeMin + rng.Intn(videoSizeMax-videoSizeMin+1) }},
	}
	// sendDue runs on the loop: it sends every message due by now.
	sendDue := func() {
		if stopped {
			return
		}
		now := int64(time.Since(epoch))
		for _, s := range streams {
			for s.next <= now {
				b := s.f.offer(s.next, s.size())
				late := int64(time.Since(epoch)) - s.next
				if r.lat.active() {
					r.genLateUs = append(r.genLateUs, float64(late)/1e3)
				}
				tr.begin(spanAppSend)
				if err := s.conn.Send(b); err != nil {
					r.problems = append(r.problems, s.name+" send: "+err.Error())
				}
				tr.end()
				s.next += int64(s.period)
			}
		}
	}
	receiver := func(s *stream) func([]byte, bool) {
		return func(data []byte, _ bool) {
			tr.begin(spanDeliver)
			if _, m, done := s.f.receive(data); done {
				r.lat.add(float64(int64(time.Since(epoch))-m.due) / 1e3)
			}
			tr.end()
		}
	}
	acds := func(srv adaptive.Addr) []*adaptive.ACD {
		return []*adaptive.ACD{
			// MANTTS classifies on the stated average: under 10 Mbps is
			// Interactive Isochronous. The peaks size the BDP windows (at
			// the seeded 1 ms RTT) above what the offered rates keep in
			// flight, so the windows do not cap the open loop.
			{
				Participants: []adaptive.Addr{srv},
				RemotePort:   5000,
				Quant: adaptive.QuantQoS{AvgThroughputBps: 9e6, PeakThroughputBps: 1000e6,
					MaxLatency: 50 * time.Millisecond, MaxJitter: 10 * time.Millisecond, LossTolerance: 0.02},
			},
			{
				Participants: []adaptive.Addr{srv},
				RemotePort:   5001,
				Quant: adaptive.QuantQoS{AvgThroughputBps: 60e6, PeakThroughputBps: 1600e6,
					MaxLatency: 100 * time.Millisecond, MaxJitter: 20 * time.Millisecond, LossTolerance: 0.05},
			},
		}
	}
	rig, err := setUpLive(cfg, r, func(t *Tracer) (*liveRig, error) {
		return newLiveRig(cfg.seed, t, acds, func(i int, c *adaptive.Conn) { c.OnReceive(receiver(streams[i])) })
	})
	if err != nil {
		return nil, err
	}
	defer rig.close()
	tr = rig.tr
	for i, s := range streams {
		s.conn = rig.conns[i]
		s.f = newFlow(pat, s.conn.Spec().MSS)
		r.specs[s.name] = specString(s.conn.Spec())
	}

	// One generator goroutine wakes every mediaTick and posts the same
	// closure; the loop sends whatever is due.
	stopGen := make(chan struct{})
	genDone := make(chan struct{})
	epoch = time.Now()
	go func() {
		defer close(genDone)
		t := time.NewTicker(mediaTick)
		defer t.Stop()
		for {
			select {
			case <-stopGen:
				return
			case <-t.C:
				rig.prov.Post(sendDue)
			}
		}
	}()

	time.Sleep(liveWarmup)
	rig.measure(r, cfg.seconds, func() (n uint64) {
		for _, s := range streams {
			n += s.f.goodBytes
		}
		return n
	})

	close(stopGen)
	<-genDone
	rig.prov.Wait(func() { stopped = true })
	rig.drain(func() bool {
		for _, s := range streams {
			if s.f.delivered != s.f.offered() {
				return false
			}
		}
		return true
	})
	rig.prov.Wait(func() {
		for _, s := range streams {
			r.offered += s.f.offered()
			r.failed += s.f.failed()
			r.corrupt += s.f.corrupt
		}
	})
	checkFlows(r, "media", false)
	return r, nil
}
