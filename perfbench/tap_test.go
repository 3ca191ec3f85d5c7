package main

import (
	"slices"
	"testing"
	"time"

	"adaptive/internal/netapi"
	"adaptive/internal/netsim"
	"adaptive/internal/sim"
	"adaptive/internal/udpnet"
)

// simPrint is what a shard's virtual-time run produced.
type simPrint struct {
	delivered, events, fp uint64
	lat                   []float64
}

func runShardPrint(t *testing.T, traced bool) simPrint {
	t.Helper()
	sh, err := newSimShard(7, 3, 0, 40, traced, newPattern(7))
	if err != nil {
		t.Fatal(err)
	}
	defer sh.close()
	sh.lat.open(1) // keep every latency sample
	sh.start()
	sh.k.RunUntil(400 * time.Millisecond)
	if len(sh.problems) > 0 {
		t.Fatalf("problems: %v", sh.problems)
	}
	if traced && (sh.tr.agg.rxPkts == 0 || sh.tr.agg.count[spanProvSend] == 0) {
		t.Fatal("traced shard recorded no spans")
	}
	return simPrint{sh.net.TotalReceived(), sh.k.Executed(), sh.fp, sh.lat.by[0]}
}

// The tap must not change what the simulator does: delivered PDUs, kernel
// events and every message latency are identical with and without it.
func TestTapKeepsSimFingerprint(t *testing.T) {
	plain := runShardPrint(t, false)
	tapped := runShardPrint(t, true)
	if plain.delivered == 0 || len(plain.lat) == 0 {
		t.Fatalf("shard moved no traffic: %+v", plain)
	}
	if plain.delivered != tapped.delivered || plain.events != tapped.events || plain.fp != tapped.fp {
		t.Fatalf("fingerprint changed: plain %d/%d/%x, tapped %d/%d/%x",
			plain.delivered, plain.events, plain.fp, tapped.delivered, tapped.events, tapped.fp)
	}
	if !slices.Equal(plain.lat, tapped.lat) {
		t.Fatal("latency samples differ")
	}
}

// A tapped live-bulk run delivers the seeded stream byte for byte: the
// workload's own stream hash and per-segment checks must pass.
func TestTapKeepsLiveBulkStream(t *testing.T) {
	if testing.Short() {
		t.Skip("live sockets")
	}
	r, err := runLiveBulk(runCfg{seed: 11, seconds: time.Second, traced: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.problems) > 0 || r.failed > 0 || r.corrupt > 0 {
		t.Fatalf("problems %v, failed %d, corrupt %d", r.problems, r.failed, r.corrupt)
	}
	if r.win.total().good == 0 || r.agg.rxPkts == 0 || r.agg.count[spanAppSend] == 0 {
		t.Fatalf("no traffic through the tap: %d bytes, %d rx PDUs", r.win.total().good, r.agg.rxPkts)
	}
}

func TestTapKeepsOptionalInterfaces(t *testing.T) {
	tr := newTracer(1)
	u := udpnet.New()
	defer u.Close()
	p, err := wrapProvider(u, tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(interface{ DroppedPosts() uint64 }); !ok {
		t.Error("udpnet provider lost DroppedPosts")
	}
	ep, err := p.Open(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ep.(netapi.BatchEndpoint); !ok {
		t.Error("udpnet endpoint lost SetBatchReceiver")
	}
	if _, ok := ep.(interface{ Flush() error }); !ok {
		t.Error("udpnet endpoint lost Flush")
	}
	if _, ok := p.Clock().(interface{ Kernel() *sim.Kernel }); ok {
		t.Error("wall clock grew a Kernel accessor")
	}

	n := netsim.New(sim.NewKernel(1))
	h := n.AddHost()
	p, err = wrapProvider(n, tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(interface{ DroppedPosts() uint64 }); ok {
		t.Error("netsim provider grew DroppedPosts")
	}
	if _, ok := p.Clock().(interface{ Kernel() *sim.Kernel }); !ok {
		t.Error("netsim clock lost its Kernel accessor")
	}
	ep, err = p.Open(h.ID(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ep.(netapi.BatchEndpoint); ok {
		t.Error("netsim endpoint grew SetBatchReceiver")
	}
	if ep.PathMTU(netapi.Addr{Host: h.ID()}) <= 0 {
		t.Error("PathMTU not passed through")
	}
}

func TestFlowChecksSegments(t *testing.T) {
	pat := newPattern(3)
	tx, rx := newFlow(pat, 100), newFlow(pat, 100)
	b := tx.offer(0, 250)
	rx.offer(0, 250)
	for _, c := range [][]byte{b[200:], b[:100], b[100:200]} { // out of order
		seq, m, done := rx.receive(append([]byte(nil), c...))
		if seq != 0 || done != (c[5] == 1) || (done && m.size != 250) {
			t.Fatalf("chunk %d: seq %d done %v size %d", c[5], seq, done, m.size)
		}
	}
	if rx.delivered != 1 || rx.goodBytes != uint64(len(b)) || rx.corrupt != 0 || len(rx.live) != rx.head {
		t.Fatalf("delivered %d bytes %d corrupt %d live %d", rx.delivered, rx.goodBytes, rx.corrupt, len(rx.live)-rx.head)
	}
	if _, _, done := rx.receive(append([]byte(nil), b[:100]...)); done || rx.corrupt != 0 {
		t.Fatal("duplicate chunk completed a message or counted as corrupt")
	}
	bad := append([]byte(nil), b[:100]...)
	bad[50] ^= 1
	if _, _, done := rx.receive(bad); done || rx.corrupt != 1 {
		t.Fatal("corrupted chunk accepted")
	}
}
