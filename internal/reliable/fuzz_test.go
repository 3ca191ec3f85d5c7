package reliable

import (
	"bytes"
	"encoding/binary"
	"testing"

	"adaptive/internal/mechanism/mechtest"
	"adaptive/internal/message"
	"adaptive/internal/wire"
)

// FuzzFECReceive drives the FEC receiver with an honest parity group
// interleaved with arbitrary peer traffic: data and parity PDUs with any
// sequence number, Aux value, flags and payload length (including lengths
// above the MSS). The script is a run of ops; each op is a control byte
// (bit 0 parity, bit 1 a 4-byte raw sequence number follows instead of a
// 1-byte one, bit 2 EOM), an Aux byte, a length byte, then the sequence
// number and payload bytes. Properties:
//   - nothing panics;
//   - the group map stays bounded: a dropped PDU never opens a group, the
//     map never holds more groups than PDUs accepted, and no group wholly
//     below RcvNxt survives;
//   - the honest group, whose members all arrive intact, is delivered
//     byte-exact (or still buffered byte-exact when a gap in front of it
//     is never filled), its one withheld member rebuilt from parity when
//     loss selects one.
func FuzzFECReceive(f *testing.F) {
	f.Add(false, uint8(2), uint8(1), uint8(9), []byte{})
	f.Add(true, uint8(2), uint8(0), uint8(1), []byte{0, 0, 3, 0, 'a', 'b', 'c'})
	// Oversized data, 1-byte parity, Aux out of range, raw sequence numbers.
	f.Add(false, uint8(6), uint8(2), uint8(0), []byte{
		4, 0, 60, 5, 'x',
		1, 1, 1, 7, 'p',
		1, 0, 4, 16, 0, 0, 1, 2,
		1, 200, 4, 24, 0, 0, 1, 2,
		2, 0, 2, 0xff, 0xff, 0xff, 0xfe, 'h', 'i',
		3, 2, 6, 0xff, 0xff, 0xff, 0xff, 0, 1, 'q',
	})
	f.Add(true, uint8(0), uint8(3), uint8(1), bytes.Repeat([]byte{5, 3, 40, 17}, 16))

	f.Fuzz(func(t *testing.T, hybrid bool, kb, hb, loss uint8, script []byte) {
		k := 2 + int(kb)%7
		spec := fecSpec(k)
		mss := spec.MSS

		// The honest group [hbase, hbase+k), built by a real sender.
		hbase := uint32(k) * uint32(hb%16)
		honest := make([][]byte, k)
		for i := range honest {
			n := (i*7 + int(hb)) % (mss + 1)
			if i == k-1 {
				n = mss
			}
			honest[i] = bytes.Repeat([]byte{byte('A' + i)}, n)
		}
		tx := mechtest.New(fecSpec(k))
		parity := sendGroup(tx, NewFEC(false), hbase, stringsOf(honest))
		if parity == nil {
			t.Fatal("honest sender emitted no parity")
		}
		lost := -1
		if int(loss)%(k+1) < k {
			lost = int(loss) % (k + 1)
		}

		rx := mechtest.New(spec)
		receiver := NewFEC(hybrid)
		// inHonest reports whether the n sequence numbers from lo (wrapping,
		// as reconstruction does) touch the honest group.
		inHonest := func(lo uint32, n int) bool {
			for i := 0; i < n; i++ {
				if lo+uint32(i)-hbase < uint32(k) {
					return true
				}
			}
			return false
		}
		next := 0 // next honest member to feed
		feedHonest := func() {
			for next < k && next == lost {
				next++
			}
			if next < k {
				p := mechtest.DataPDU(hbase+uint32(next), string(honest[next]))
				receiver.OnData(rx, p)
				next++
			}
		}
		check := func(accepted int) {
			if len(receiver.groups) > accepted {
				t.Fatalf("%d groups after %d accepted PDUs", len(receiver.groups), accepted)
			}
			for base := range receiver.groups {
				if base+uint32(k) <= rx.StateV.RcvNxt {
					t.Fatalf("group %d survived below RcvNxt %d", base, rx.StateV.RcvNxt)
				}
			}
		}

		accepted := 0
		for ops := 0; len(script) >= 3 && ops < 64; ops++ {
			ctl, aux, n := script[0], script[1], int(script[2])
			script = script[3:]
			var seq uint32
			if ctl&2 != 0 && len(script) >= 4 {
				seq = binary.BigEndian.Uint32(script)
				script = script[4:]
			} else if len(script) >= 1 {
				seq = uint32(script[0])
				script = script[1:]
			}
			n = min(n, len(script))
			payload := script[:n]
			script = script[n:]

			p := &wire.PDU{Header: wire.Header{Type: wire.TData, Seq: seq, Aux: uint16(aux)}}
			if ctl&4 != 0 {
				p.Flags |= wire.FlagEOM
			}
			p.Payload = message.NewFromBytes(payload)
			malformed := rx.Sink.Counts["rel.fec_malformed"]
			groups := len(receiver.groups)
			if ctl&1 != 0 {
				if inHonest(seq, int(aux)) {
					continue // would forge honest members
				}
				p.Type = wire.TParity
				receiver.OnParity(rx, p)
			} else {
				if inHonest(seq, 1) {
					continue
				}
				receiver.OnData(rx, p)
			}
			if rx.Sink.Counts["rel.fec_malformed"] != malformed {
				if len(receiver.groups) != groups {
					t.Fatalf("dropped PDU (seq %d, %d bytes) opened a group", seq, n)
				}
			} else {
				accepted++
			}
			check(accepted)
			if ops%2 == 0 {
				feedHonest()
				accepted++
				check(accepted)
			}
		}
		for next < k {
			feedHonest()
			accepted++
		}
		receiver.OnParity(rx, parity)
		check(accepted + 1)
		if !hybrid {
			rx.Kernel.RunUntil(10 * spec.GapDeadline) // abandon hostile gaps
		}

		for i, want := range honest {
			seq := hbase + uint32(i)
			var got [][]byte
			for _, d := range rx.Released {
				if d.Seq == seq {
					got = append(got, d.Msg.Bytes())
				}
			}
			if r, ok := rx.StateV.RcvBuf[seq]; ok {
				got = append(got, r.PDU.PayloadBytes())
			}
			if len(got) != 1 || !bytes.Equal(got[0], want) {
				t.Fatalf("honest member %d (seq %d, lost=%v): got %q, want %q", i, seq, i == lost, got, want)
			}
		}
	})
}

func stringsOf(bs [][]byte) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = string(b)
	}
	return out
}
