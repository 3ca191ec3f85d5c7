package reliable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"adaptive/internal/mechanism"
	"adaptive/internal/mechanism/mechtest"
	"adaptive/internal/message"
	"adaptive/internal/wire"
)

// fecSpec returns a spec with a small FEC group for compact tests.
func fecSpec(k int) *mechanism.Spec {
	s := mechanism.DefaultSpec()
	s.Recovery = mechanism.RecoveryFEC
	s.FECGroup = k
	s.MSS = 32
	s.GapDeadline = 20 * time.Millisecond
	s.LossTolerant = true
	return &s
}

// sendGroup pushes k data PDUs through the sender side and returns the
// emitted parity PDU.
func sendGroup(e *mechtest.Env, f *FEC, base uint32, payloads []string) *wire.PDU {
	before := e.ControlCount(wire.TParity)
	for i, p := range payloads {
		pdu := mechtest.DataPDU(base+uint32(i), p)
		e.StateV.Unacked[pdu.Seq] = &mechanism.SentPDU{PDU: pdu}
		if e.StateV.SndNxt <= pdu.Seq {
			e.StateV.SndNxt = pdu.Seq + 1
		}
		f.OnSendData(e, pdu)
	}
	if e.ControlCount(wire.TParity) == before {
		return nil
	}
	return e.LastControl(wire.TParity)
}

func TestFECParityEmittedPerGroup(t *testing.T) {
	e := mechtest.New(fecSpec(4))
	f := NewFEC(false)
	parity := sendGroup(e, f, 0, []string{"aa", "bb", "cc", "dd"})
	if parity == nil {
		t.Fatal("no parity after full group")
	}
	if parity.Seq != 0 || parity.Aux != 4 {
		t.Fatalf("parity header %v", &parity.Header)
	}
	if e.Sink.Counts["rel.parity_sent"] != 1 {
		t.Fatal("parity not counted")
	}
}

func TestFECFlushPartialGroup(t *testing.T) {
	e := mechtest.New(fecSpec(8))
	f := NewFEC(false)
	if p := sendGroup(e, f, 0, []string{"aa", "bb"}); p != nil {
		t.Fatal("parity emitted early")
	}
	f.FlushParity(e)
	p := e.LastControl(wire.TParity)
	if p == nil || p.Aux != 2 {
		t.Fatalf("flushed parity %v", p)
	}
}

func TestFECSingleLossReconstructed(t *testing.T) {
	e := mechtest.New(fecSpec(4))
	sender := NewFEC(false)
	parity := sendGroup(e, sender, 0, []string{"aaaa", "bb", "cccccc", "d"})

	rx := mechtest.New(fecSpec(4))
	receiver := NewFEC(false)
	// Deliver 0,1,3 — PDU 2 is lost — then the parity.
	feedData(rx, receiver, 0, "aaaa")
	feedData(rx, receiver, 1, "bb")
	feedData(rx, receiver, 3, "d")
	if len(rx.Released) != 2 {
		t.Fatalf("pre-parity released %d", len(rx.Released))
	}
	receiver.OnParity(rx, parity)
	got := rx.ReleasedPayloads()
	if len(got) != 4 || got[2] != "cccccc" {
		t.Fatalf("reconstruction failed: %v", got)
	}
	if rx.StateV.FECRecovered != 1 {
		t.Fatal("recovery not counted")
	}
	if rx.Skips != nil {
		t.Fatal("reconstruction should not skip")
	}
}

func TestFECParityFirstThenData(t *testing.T) {
	e := mechtest.New(fecSpec(3))
	sender := NewFEC(false)
	parity := sendGroup(e, sender, 0, []string{"x1", "y22", "z"})

	rx := mechtest.New(fecSpec(3))
	receiver := NewFEC(false)
	receiver.OnParity(rx, parity) // parity arrives before any data
	feedData(rx, receiver, 0, "x1")
	feedData(rx, receiver, 2, "z")
	got := rx.ReleasedPayloads()
	if len(got) != 3 || got[1] != "y22" {
		t.Fatalf("parity-first reconstruction: %v", got)
	}
}

func TestFECDoubleLossAbandonedAfterDeadline(t *testing.T) {
	rx := mechtest.New(fecSpec(4))
	receiver := NewFEC(false)
	// Two of four lost: parity cannot help; deadline abandons.
	feedData(rx, receiver, 0, "a")
	feedData(rx, receiver, 3, "d")
	rx.Kernel.RunUntil(100 * time.Millisecond)
	got := rx.ReleasedPayloads()
	if len(got) != 2 || got[0] != "a" || got[1] != "d" {
		t.Fatalf("post-deadline delivery: %v", got)
	}
	if rx.StateV.GapsAbandoned != 2 {
		t.Fatalf("gaps abandoned %d", rx.StateV.GapsAbandoned)
	}
	if len(rx.Skips) == 0 {
		t.Fatal("orderer never told to skip")
	}
	var sawLossNote bool
	for _, n := range rx.Notes {
		if n.Kind == mechanism.NoteAppLoss {
			sawLossNote = true
		}
	}
	if !sawLossNote {
		t.Fatal("application not notified of loss")
	}
}

func TestFECLossTolerantNeverRetransmits(t *testing.T) {
	e := mechtest.New(fecSpec(4))
	f := NewFEC(false)
	e.SentEntry(0, "a", 0)
	f.OnNak(e, EncodeNak([]uint32{0}))
	f.OnRTO(e)
	if len(e.Data) != 0 {
		t.Fatal("loss-tolerant FEC retransmitted")
	}
	// RTO clears the sender buffer so flow never blocks on history.
	if e.StateV.InFlight() != 0 || e.StateV.SndUna != e.StateV.SndNxt {
		t.Fatal("RTO did not clear the loss-tolerant sender buffer")
	}
	if e.Pumps == 0 {
		t.Fatal("sender not pumped after buffer clear")
	}
}

func TestFECHybridNakFallback(t *testing.T) {
	spec := fecSpec(4)
	spec.Recovery = mechanism.RecoveryFECHybrid
	e := mechtest.New(spec)
	f := NewFEC(true)
	e.SentEntry(0, "a", 0)
	f.OnNak(e, EncodeNak([]uint32{0}))
	if len(e.Data) != 1 {
		t.Fatal("hybrid ignored NAK")
	}
	if !f.Reliable() {
		t.Fatal("hybrid must claim reliability")
	}
}

func TestFECHybridReceiverNaksUnrecoverableGap(t *testing.T) {
	rx := mechtest.New(fecSpec(4))
	receiver := NewFEC(true)
	feedData(rx, receiver, 0, "a")
	feedData(rx, receiver, 3, "d") // 1,2 missing: two losses, FEC can't fix
	nak := rx.LastControl(wire.TNak)
	if nak == nil {
		t.Fatal("hybrid receiver never NAKed")
	}
	missing := DecodeNakList(nak)
	if len(missing) != 2 || missing[0] != 1 || missing[1] != 2 {
		t.Fatalf("NAK lists %v", missing)
	}
}

func TestFECGroupsGarbageCollected(t *testing.T) {
	rx := mechtest.New(fecSpec(2))
	receiver := NewFEC(false)
	for seq := uint32(0); seq < 20; seq++ {
		feedData(rx, receiver, seq, fmt.Sprintf("p%d", seq))
	}
	if len(receiver.groups) > 1 {
		t.Fatalf("%d stale group accumulators", len(receiver.groups))
	}
}

func TestFECSegueExportImport(t *testing.T) {
	e := mechtest.New(fecSpec(4))
	f1 := NewFEC(false)
	sendGroup(e, f1, 0, []string{"aa", "bb"}) // partial group pending
	f2 := NewFEC(false)
	f2.ImportState(f1.ExportState())
	// The partial accumulator traveled: two more sends complete the group.
	p3 := mechtest.DataPDU(2, "cc")
	e.StateV.Unacked[2] = &mechanism.SentPDU{PDU: p3}
	f2.OnSendData(e, p3)
	p4 := mechtest.DataPDU(3, "dd")
	e.StateV.Unacked[3] = &mechanism.SentPDU{PDU: p4}
	f2.OnSendData(e, p4)
	parity := e.LastControl(wire.TParity)
	if parity == nil || parity.Aux != 4 {
		t.Fatalf("segue broke parity accumulation: %v", parity)
	}
}

// Property: for any group of payloads with any single loss position, the
// receiver reconstructs the missing payload exactly. Members selected by
// full are stretched to exactly the MSS, so full-width blocks (the widest
// XOR span, ending on the block's last byte) are covered as well as short
// and odd lengths.
func TestFECReconstructionProperty(t *testing.T) {
	mss := fecSpec(2).MSS
	f := func(data [][]byte, lossIdx, full uint8) bool {
		k := len(data)
		if k < 2 || k > 8 {
			return true // vacuous outside group-size range
		}
		for i := range data {
			if full&(1<<i) != 0 {
				data[i] = append(data[i], bytes.Repeat([]byte{0xA5}, mss)...)
			}
			if len(data[i]) > mss {
				data[i] = data[i][:mss]
			}
		}
		loss := int(lossIdx) % k
		spec := fecSpec(k)
		e := mechtest.New(spec)
		sender := NewFEC(false)
		payloads := make([]string, k)
		for i, d := range data {
			payloads[i] = string(d)
		}
		parity := sendGroup(e, sender, 0, payloads)
		if parity == nil {
			return false
		}
		rx := mechtest.New(fecSpec(k))
		receiver := NewFEC(false)
		for i := 0; i < k; i++ {
			if i == loss {
				continue
			}
			feedData(rx, receiver, uint32(i), payloads[i])
		}
		receiver.OnParity(rx, parity)
		got := rx.ReleasedPayloads()
		if len(got) != k {
			return false
		}
		for i := 0; i < k; i++ {
			if got[i] != payloads[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// xorIntoRef is the byte-at-a-time definition xorInto must match.
func xorIntoRef(acc []byte, payload []byte, eom bool) {
	word := uint16(len(payload))
	if eom {
		word |= 0x8000
	}
	var lenb [2]byte
	binary.BigEndian.PutUint16(lenb[:], word)
	acc[0] ^= lenb[0]
	acc[1] ^= lenb[1]
	for i, b := range payload {
		acc[2+i] ^= b
	}
}

// TestXorIntoMatchesByteLoop checks the vectorized xorInto against the
// byte-loop reference for every payload length from 0 to the default MSS,
// with and without the EOM bit, on an accumulator that already holds data.
func TestXorIntoMatchesByteLoop(t *testing.T) {
	mss := mechanism.DefaultSpec().MSS
	rng := rand.New(rand.NewSource(7))
	acc := make([]byte, 2+mss)
	payload := make([]byte, mss)
	for n := 0; n <= mss; n++ {
		for _, eom := range []bool{false, true} {
			rng.Read(acc)
			rng.Read(payload)
			want := append([]byte(nil), acc...)
			xorIntoRef(want, payload[:n], eom)
			xorInto(acc, payload[:n], eom)
			if !bytes.Equal(acc, want) {
				t.Fatalf("len %d eom %v: xorInto diverges from the byte loop", n, eom)
			}
		}
	}
}

// TestFECOversizedDataDropped: a data PDU longer than the MSS cannot have
// been folded by an honest sender; it is dropped and counted instead of
// overrunning the 2+MSS group accumulator.
func TestFECOversizedDataDropped(t *testing.T) {
	rx := mechtest.New(fecSpec(4))
	receiver := NewFEC(false)
	feedData(rx, receiver, 1, strings.Repeat("x", rx.SpecV.MSS+1))
	if rx.Sink.Counts["rel.fec_malformed"] != 1 {
		t.Fatalf("fec_malformed = %d, want 1", rx.Sink.Counts["rel.fec_malformed"])
	}
	if len(rx.StateV.RcvBuf) != 0 || len(receiver.groups) != 0 {
		t.Fatal("oversized PDU was buffered or opened a group")
	}
	// An MSS-sized payload is still accepted.
	feedData(rx, receiver, 0, strings.Repeat("y", rx.SpecV.MSS))
	if got := rx.ReleasedPayloads(); len(got) != 1 || len(got[0]) != rx.SpecV.MSS {
		t.Fatalf("MSS-sized PDU not delivered: %v", got)
	}
}

// TestFECMalformedParityDropped: parity too short to carry its length
// word, longer than a block, or covering 0 or more than FECGroup members is
// dropped and counted before it reaches reconstruction.
func TestFECMalformedParityDropped(t *testing.T) {
	const k = 4
	for _, tc := range []struct {
		name    string
		aux     uint16
		payload string
	}{
		{"one-byte", 1, "z"},
		{"empty", 1, ""},
		{"oversized", 1, strings.Repeat("p", 2+32+1)},
		{"aux-zero", 0, "\x00\x01q"},
		{"aux-above-group", k + 1, "\x00\x01q"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rx := mechtest.New(fecSpec(k))
			receiver := NewFEC(false)
			p := &wire.PDU{Header: wire.Header{Type: wire.TParity, Seq: 0, Aux: tc.aux}}
			if tc.payload != "" {
				p.Payload = message.NewFromBytes([]byte(tc.payload))
			}
			receiver.OnParity(rx, p)
			if rx.Sink.Counts["rel.fec_malformed"] != 1 {
				t.Fatalf("fec_malformed = %d, want 1", rx.Sink.Counts["rel.fec_malformed"])
			}
			if len(receiver.groups) != 0 || len(rx.Released) != 0 || rx.StateV.FECRecovered != 0 {
				t.Fatal("malformed parity opened a group or produced data")
			}
		})
	}
}
