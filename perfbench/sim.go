package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"adaptive"
	"adaptive/internal/netapi"
	"adaptive/internal/netsim"
	"adaptive/internal/sim"
)

// sim-mixed is the many-session soak in the simulator: 1000 sessions over
// the Table-1 mix on a fixed set of 8 independent shards (2 hosts and a
// duplex 1 Gbps link each), run on at most GOMAXPROCS worker goroutines.
// Every session is dialed through MANTTS from a per-class ACD, and every
// node runs with the observability plane on (a private UNITES repository).
//
// Virtual time advances in rounds across all shards until the wall-clock
// window has passed. Each shard's events depend only on (seed, shard), so
// the first simPrefix of virtual time yields a fingerprint that must repeat
// exactly across set-ups of the same seed, traced or not.

const (
	simSessions = 1000
	simShards   = 8
	simSetups   = 7
	simPrefix   = 300 * time.Millisecond // virtual warm-up ending in the fingerprint
	simRound    = 50 * time.Millisecond  // virtual time per measured round
	simDrain    = time.Second            // virtual time for in-flight messages to land
	simEstLimit = 5 * time.Second        // virtual establishment deadline
)

var simLink = netsim.LinkConfig{
	Bandwidth: 1e9,
	PropDelay: 500 * time.Microsecond,
	MTU:       1500,
	QueueLen:  1 << 22,
	Coalesce:  200 * time.Microsecond,
}

var simPath = adaptive.StaticPathInfo{Bandwidth: 1e9, RTT: time.Millisecond, MTU: 1500}

// simClass is one traffic class of the mix (per 10 sessions: 2 voice CBR,
// 4 video VBR, 2 bulk, 2 OLTP request-response).
type simClass struct {
	name   string
	weight int
	acd    func(srv adaptive.Addr, port uint16) *adaptive.ACD
}

// Indexes into simMix.
const (
	classVoice = iota
	classVideo
	classBulk
	classOLTP
)

var simMix = []simClass{
	{"voice", 2, func(srv adaptive.Addr, port uint16) *adaptive.ACD {
		return &adaptive.ACD{Participants: []adaptive.Addr{srv}, RemotePort: port,
			Quant: adaptive.QuantQoS{AvgThroughputBps: 64e3, PeakThroughputBps: 64e3,
				MaxLatency: 100 * time.Millisecond, MaxJitter: 20 * time.Millisecond, LossTolerance: 0.02}}
	}},
	{"video", 4, func(srv adaptive.Addr, port uint16) *adaptive.ACD {
		return &adaptive.ACD{Participants: []adaptive.Addr{srv}, RemotePort: port,
			Quant: adaptive.QuantQoS{AvgThroughputBps: 1e6, PeakThroughputBps: 4e6,
				MaxLatency: 150 * time.Millisecond, MaxJitter: 30 * time.Millisecond, LossTolerance: 0.05}}
	}},
	{"bulk", 2, func(srv adaptive.Addr, port uint16) *adaptive.ACD {
		return &adaptive.ACD{Participants: []adaptive.Addr{srv}, RemotePort: port,
			Quant: adaptive.QuantQoS{AvgThroughputBps: 20e6, PeakThroughputBps: 100e6},
			Qual:  adaptive.QualQoS{Ordered: true}}
	}},
	{"oltp", 2, func(srv adaptive.Addr, port uint16) *adaptive.ACD {
		return &adaptive.ACD{Participants: []adaptive.Addr{srv}, RemotePort: port,
			Quant: adaptive.QuantQoS{AvgThroughputBps: 40e3, MaxLatency: 50 * time.Millisecond, LossTolerance: 0.001},
			Qual:  adaptive.QualQoS{Ordered: true}}
	}},
}

func simClassFor(i int) int {
	slot := i % 10
	for c := range simMix {
		if slot < simMix[c].weight {
			return c
		}
		slot -= simMix[c].weight
	}
	return 0
}

const (
	voicePeriod  = 20 * time.Millisecond
	videoPeriod  = time.Second / 30
	videoGOP     = 30 // every 30th frame is a key frame, 3x the size
	simBulkChunk = 8 << 10
	simBulkLimit = 32 << 10 // bytes outstanding per bulk session
	oltpReq      = 256
	oltpThink    = 5 * time.Millisecond
	simPortBase  = 2000
)

// simSession is one session's application state.
type simSession struct {
	sh       *simShard
	class    int
	rng      *rand.Rand
	client   *adaptive.Conn
	server   *adaptive.Conn
	up, down *flow // client->server, server->client (OLTP responses)
	frame    int
	inflight int
	tickFn   func()
}

type simShard struct {
	k              *sim.Kernel
	net            *netsim.Network
	links          []*netsim.Link
	client, server *adaptive.Node
	tr             *Tracer
	sess           []*simSession
	problems       []string // failed output checks, merged after the run

	dialUs      []float64
	establishMs []float64 // virtual
	lat         latencies // virtual time
	stopped     bool
	fp          uint64 // running hash of every completed message
	wallNs      int64  // wall time spent running this shard in the window
}

func (sh *simShard) now() int64 { return int64(sh.k.Now()) }

// send offers one message on f through conn.
func (sh *simShard) send(conn *adaptive.Conn, f *flow, size int) {
	b := f.offer(sh.now(), size)
	sh.tr.begin(spanAppSend)
	if err := conn.Send(b); err != nil {
		sh.problems = append(sh.problems, "sim send: "+err.Error())
	}
	sh.tr.end()
}

// completed books a message that arrived whole.
func (sh *simShard) completed(s *simSession, seq uint32, m msg) {
	lat := sh.now() - m.due
	sh.fp = (sh.fp ^ uint64(lat) ^ uint64(seq)<<32 ^ uint64(s.class)<<60) * 1099511628211
	sh.lat.add(float64(lat) / 1e3)
}

func (s *simSession) tick() {
	sh := s.sh
	if sh.stopped {
		return
	}
	switch s.class {
	case classVoice:
		sh.send(s.client, s.up, voiceSize)
		sh.k.Schedule(voicePeriod, s.tickFn)
	case classVideo:
		size := 1500 + s.rng.Intn(3001)
		if s.frame%videoGOP == 0 {
			size *= 3
		}
		s.frame++
		sh.send(s.client, s.up, size)
		sh.k.Schedule(videoPeriod, s.tickFn)
	case classBulk:
		for !sh.stopped && s.inflight < simBulkLimit {
			size := simBulkChunk/2 + s.rng.Intn(simBulkChunk+1)
			s.inflight += fixSize(size, s.up.mss)
			sh.send(s.client, s.up, size)
		}
	case classOLTP:
		sh.send(s.client, s.up, oltpReq)
	}
}

// onServer handles a segment delivered to the server side of s.
func (s *simSession) onServer(data []byte, _ bool) {
	sh := s.sh
	sh.tr.begin(spanDeliver)
	if seq, m, done := s.up.receive(data); done {
		sh.completed(s, seq, m)
		switch s.class {
		case classBulk:
			s.inflight -= int(m.size)
			s.tick()
		case classOLTP:
			sh.send(s.server, s.down, oltpReq)
		}
	}
	sh.tr.end()
}

// onClient handles an OLTP response delivered to the client side.
func (s *simSession) onClient(data []byte, _ bool) {
	sh := s.sh
	sh.tr.begin(spanDeliver)
	if seq, m, done := s.down.receive(data); done {
		sh.completed(s, seq, m)
		if !sh.stopped {
			sh.k.Schedule(oltpThink, s.tickFn)
		}
	}
	sh.tr.end()
}

// newSimShard builds one shard's world, dials its sessions and runs it until
// all are established.
func newSimShard(seed int64, shard, first, n int, traced bool, pat pattern) (*simShard, error) {
	k := sim.NewKernel(sim.DeriveSeed(seed, shard))
	net := netsim.New(k)
	a, b := net.AddHost(), net.AddHost()
	ab, ba := net.NewLink(simLink), net.NewLink(simLink)
	net.SetRoute(a.ID(), b.ID(), ab)
	net.SetRoute(b.ID(), a.ID(), ba)
	sh := &simShard{k: k, net: net, links: []*netsim.Link{ab, ba}}
	var prov netapi.Provider = net
	if traced {
		sh.tr = newTracer(seed + int64(shard))
		var err error
		if prov, err = wrapProvider(net, sh.tr); err != nil {
			return nil, err
		}
	}
	node := func(h netapi.HostID, salt int64, name string) (*adaptive.Node, error) {
		return adaptive.NewNode(adaptive.WithProvider(prov), adaptive.WithHost(h),
			adaptive.WithSeed(sim.DeriveSeed(seed, shard)+salt),
			adaptive.WithName(fmt.Sprintf("s%d-%s", shard, name)),
			adaptive.WithObservability(adaptive.Observe{}))
	}
	var err error
	if sh.client, err = node(a.ID(), 1, "c"); err != nil {
		return nil, err
	}
	if sh.server, err = node(b.ID(), 2, "s"); err != nil {
		return nil, err
	}
	sh.client.SeedPath(b.ID(), simPath)
	sh.server.SeedPath(a.ID(), simPath)

	dialAt := make(map[uint32]time.Duration)
	pending := n
	established := func(id uint32) {
		if t0, ok := dialAt[id]; ok {
			delete(dialAt, id)
			sh.establishMs = append(sh.establishMs, float64(k.Now()-t0)/1e6)
			pending--
		}
	}
	sh.client.Subscribe(func(id uint32, note adaptive.Notification) {
		if note.Kind == adaptive.NoteEstablished {
			established(id)
		}
	})
	for i := 0; i < n; i++ {
		s := &simSession{sh: sh, class: simClassFor(first + i),
			rng: rand.New(rand.NewSource(sim.DeriveSeed(seed, first+i)))}
		s.tickFn = s.tick
		sh.sess = append(sh.sess, s)
		port := uint16(simPortBase + i)
		if err := sh.server.Listen(port, nil, func(c *adaptive.Conn) {
			s.server = c
			c.OnReceive(s.onServer)
		}); err != nil {
			return nil, err
		}
		t0 := time.Now()
		c, err := sh.client.Dial(simMix[s.class].acd(sh.server.Addr(), port), &adaptive.DialOptions{LocalPort: uint16(30000 + i)})
		if err != nil {
			return nil, err
		}
		sh.dialUs = append(sh.dialUs, float64(time.Since(t0).Nanoseconds())/1e3)
		s.client = c
		dialAt[c.ConnID()] = k.Now()
		if c.Established() {
			established(c.ConnID())
		}
	}
	for pending > 0 {
		if k.Now() > simEstLimit {
			return nil, fmt.Errorf("shard %d: %d sessions not established", shard, pending)
		}
		k.RunFor(time.Millisecond)
	}
	for _, s := range sh.sess {
		mss := s.client.Spec().MSS
		s.up, s.down = newFlow(pat, mss), newFlow(pat, mss)
		if s.class == classOLTP {
			s.client.OnReceive(s.onClient)
		}
	}
	return sh, nil
}

// start staggers the generators over the first 20 ms, as sessions of one
// class would not start in lockstep.
func (sh *simShard) start() {
	for i, s := range sh.sess {
		sh.k.Schedule(time.Duration(1+i%40)*time.Millisecond/2, s.tickFn)
	}
}

func (sh *simShard) close() {
	sh.client.Close()
	sh.server.Close()
}

// parallel runs fn(0..n-1) on at most GOMAXPROCS goroutines and returns
// when all calls are done.
func parallel(n int, fn func(i int)) {
	next := make(chan int, n) // holds every index: never blocks
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// eachShard runs fn over every shard in parallel.
func (w *simWorld) eachShard(fn func(sh *simShard)) {
	parallel(len(w.shards), func(i int) { fn(w.shards[i]) })
}

// simWorld is one set-up of all shards.
type simWorld struct {
	shards []*simShard
}

func newSimWorld(cfg runCfg, pat pattern) (*simWorld, float64, error) {
	w := &simWorld{shards: make([]*simShard, simShards)}
	errs := make([]error, simShards)
	t0 := time.Now()
	parallel(simShards, func(i int) {
		per, rem := simSessions/simShards, simSessions%simShards
		first := i*per + min(i, rem)
		n := per
		if i < rem {
			n++
		}
		w.shards[i], errs[i] = newSimShard(cfg.seed, i, first, n, cfg.traced, pat)
	})
	setup := time.Since(t0).Seconds()
	for _, err := range errs {
		if err != nil {
			w.close()
			return nil, 0, err
		}
	}
	return w, setup, nil
}

// prefix starts the generators, runs simPrefix of virtual time and
// returns the world's fingerprint.
func (w *simWorld) prefix() string {
	w.eachShard(func(sh *simShard) {
		sh.start()
		sh.k.RunUntil(simPrefix)
	})
	h := fnv.New64a()
	for _, sh := range w.shards {
		fmt.Fprintf(h, "%d/%d/%d;", sh.net.TotalReceived(), sh.k.Executed(), sh.fp)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// retire closes a world set up only to be timed, keeping what its output
// checks found in the traffic it ran.
func (w *simWorld) retire(r *result) {
	for _, sh := range w.shards {
		r.problems = append(r.problems, sh.problems...)
		for _, s := range sh.sess {
			r.corrupt += s.up.corrupt + s.down.corrupt
		}
	}
	w.close()
}

func (w *simWorld) close() {
	for _, sh := range w.shards {
		if sh != nil {
			sh.close()
		}
	}
}

// simSnap is the state of every shard at one edge of the window.
type simSnap struct {
	rx, events, good uint64
	agg              spanAgg
	retx, fec, gaps  uint64
}

func (w *simWorld) snapshot() simSnap {
	var s simSnap
	for _, sh := range w.shards {
		s.rx += sh.net.TotalReceived()
		s.events += sh.k.Executed()
		if sh.tr != nil {
			s.agg.add(sh.tr.agg)
		}
		for _, ss := range sh.sess {
			s.good += ss.up.goodBytes + ss.down.goodBytes
			for _, c := range []*adaptive.Conn{ss.client, ss.server} {
				if c != nil {
					st := c.Stats()
					s.retx += st.Retransmissions
					s.fec += st.FECRecovered
					s.gaps += st.GapsAbandoned
				}
			}
		}
	}
	return s
}

func runSimMixed(cfg runCfg) (*result, error) {
	r := &result{specs: map[string]string{}}
	pat := newPattern(cfg.seed)
	setups := simSetups
	if cfg.traced {
		setups = 1
	}
	var w *simWorld
	for i := 0; i < setups; i++ {
		if w != nil {
			w.retire(r)
		}
		var setup float64
		var err error
		runtime.GC() // no set-up pays for collecting the one before
		if w, setup, err = newSimWorld(cfg, pat); err != nil {
			return nil, err
		}
		r.setupS = append(r.setupS, setup)
		// The first set-up and the one kept for the window both run the
		// fingerprinted prefix; the ones between only time the set-up.
		if i == 0 || i == setups-1 {
			fp := w.prefix()
			if i == 0 {
				r.fingerprint = fp
			} else if fp != r.fingerprint {
				r.problems = append(r.problems, fmt.Sprintf("sim-mixed fingerprint %s differs from first set-up %s", fp, r.fingerprint))
			}
		}
	}
	defer w.close()
	for _, s := range w.shards[0].sess[:10] { // one mix cycle: every class
		r.specs[simMix[s.class].name] = specString(s.client.Spec())
	}

	// Measured window: whole rounds of virtual time until the wall-clock
	// window has passed.
	slices := int(cfg.seconds / sliceLen)
	for _, sh := range w.shards {
		sh.lat.open(slices)
	}
	s0 := w.snapshot()
	r.win.mark(s0.rx, s0.good)
	vt := simPrefix
	last := time.Now()
	for n := 0; n < slices; {
		vt += simRound
		w.eachShard(func(sh *simShard) {
			t0 := time.Now()
			sh.k.RunUntil(vt)
			sh.wallNs += time.Since(t0).Nanoseconds()
		})
		if time.Since(last) >= sliceLen {
			s := w.snapshot()
			r.win.mark(s.rx, s.good)
			last = time.Now()
			n++
			for _, sh := range w.shards {
				sh.lat.cur = n
			}
		}
	}
	s1 := w.snapshot()
	r.win.finish()

	// Drain: generators stop, in-flight messages land.
	w.eachShard(func(sh *simShard) {
		sh.stopped = true
		sh.k.RunUntil(vt + simDrain)
	})
	var drops uint64
	var dialUs, estMs []float64
	var wallMax, wallSum int64
	for _, sh := range w.shards {
		r.problems = append(r.problems, sh.problems...)
		r.lat.merge(&sh.lat)
		dialUs = append(dialUs, sh.dialUs...)
		estMs = append(estMs, sh.establishMs...)
		wallMax = max(wallMax, sh.wallNs)
		wallSum += sh.wallNs
		for _, s := range sh.sess {
			for _, f := range []*flow{s.up, s.down} {
				r.offered += f.offered()
				r.failed += f.failed()
				r.corrupt += f.corrupt
			}
		}
		for _, l := range sh.links {
			st := l.Stats()
			drops += st.DropsQueue + st.DropsMTU + st.DropsRandom + st.DropsDown + st.DropsBurst
		}
	}
	checkFlows(r, "sim-mixed", true)
	if !cfg.traced {
		return r, nil
	}
	r.agg = s1.agg.sub(s0.agg)
	r.retx = s1.retx - s0.retx
	r.spans = w.shards[0].tr.log
	for _, sh := range w.shards {
		r.pdus = append(r.pdus, sh.tr.pkts[:min(len(sh.tr.pkts), maxPktSamples/simShards)]...)
	}
	var hits, misses uint64
	for _, sh := range w.shards {
		for _, n := range []*adaptive.Node{sh.client, sh.server} {
			st := n.Stack().Synth().Stats()
			hits += st.TemplateHits
			misses += st.TemplateMiss
		}
	}
	events := float64(s1.events - s0.events)
	r.layers = metrics{
		"mantts.dial_us_p50":            {quantile(dialUs, 0.5), "us"},
		"mantts.establish_ms_p50":       {quantile(estMs, 0.5), "ms"},
		"tko.template_hit_frac":         {ratio(float64(hits), float64(hits+misses)), "ratio"},
		"reliable.fec_recovered":        {float64(s1.fec - s0.fec), "count"},
		"reliable.gaps_abandoned":       {float64(s1.gaps - s0.gaps), "count"},
		"udpnet.frames_per_datagram":    {0, "count"},
		"udpnet.datagrams_per_rx_batch": {0, "count"},
		"udpnet.window_flush_frac":      {0, "ratio"},
		"udpnet.dropped_posts":          {0, "count"},
		"udpnet.send_errors":            {0, "count"},
		"sim.events_per_pkt":            {ratio(events, float64(s1.rx-s0.rx)), "count"},
		"sim.ns_per_event":              {ratio(float64(wallSum), events), "ns"},
		"sim.shard_skew":                {ratio(float64(wallMax), float64(wallSum)/simShards), "ratio"},
		"netsim.link_drops":             {float64(drops), "count"},
	}
	return r, nil
}
