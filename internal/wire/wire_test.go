package wire

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"adaptive/internal/message"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, ck := range []ChecksumKind{CkNone, CkInternet, CkCRC32} {
		p := &PDU{
			Header: Header{
				Type: TData, Flags: FlagEOM,
				SrcPort: 100, DstPort: 200, Window: 32,
				ConnID: 0xdeadbeef, Seq: 42, Ack: 41, Aux: 7,
			},
			Payload: message.NewFromBytes([]byte("hello adaptive")),
		}
		pkt := Encode(p, ck)
		got, err := Decode(pkt.Bytes())
		if err != nil {
			t.Fatalf("%v: decode: %v", ck, err)
		}
		if got.Type != TData || got.ConnID != 0xdeadbeef || got.Seq != 42 ||
			got.Ack != 41 || got.Window != 32 || got.Aux != 7 ||
			got.SrcPort != 100 || got.DstPort != 200 {
			t.Fatalf("%v: header mismatch: %v", ck, &got.Header)
		}
		if got.Flags&FlagEOM == 0 {
			t.Fatalf("%v: EOM flag lost", ck)
		}
		if string(got.PayloadBytes()) != "hello adaptive" {
			t.Fatalf("%v: payload %q", ck, got.PayloadBytes())
		}
		if got.Checksum() != ck {
			t.Fatalf("checksum kind %v != %v", got.Checksum(), ck)
		}
		pkt.Release()
	}
}

func TestHeaderOnlyPDU(t *testing.T) {
	p := &PDU{Header: Header{Type: TAck, Ack: 9, Window: 16}}
	pkt := Encode(p, CkInternet)
	if pkt.Len() != Overhead {
		t.Fatalf("ack PDU length %d, want %d", pkt.Len(), Overhead)
	}
	got, err := Decode(pkt.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Payload != nil || got.Ack != 9 {
		t.Fatalf("decoded ack: %v payload=%v", &got.Header, got.Payload)
	}
}

func TestCorruptionDetected(t *testing.T) {
	for _, ck := range []ChecksumKind{CkInternet, CkCRC32} {
		p := &PDU{Header: Header{Type: TData, Seq: 1}, Payload: message.NewFromBytes(make([]byte, 256))}
		pkt := Encode(p, ck).CopyBytes()
		// Flip one bit in every position and confirm detection.
		misses := 0
		for i := range pkt {
			pkt[i] ^= 0x10
			if _, err := Decode(pkt); err == nil {
				misses++
			}
			pkt[i] ^= 0x10
		}
		if misses > 0 {
			t.Fatalf("%v: %d single-bit corruptions undetected", ck, misses)
		}
	}
}

func TestNoChecksumAcceptsCorruptPayload(t *testing.T) {
	p := &PDU{Header: Header{Type: TData, Seq: 1}, Payload: message.NewFromBytes([]byte("abcd"))}
	pkt := Encode(p, CkNone).CopyBytes()
	pkt[HeaderLen] ^= 0xff // corrupt payload only
	if _, err := Decode(pkt); err != nil {
		t.Fatalf("CkNone rejected corrupt payload: %v", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(make([]byte, Overhead-1)); err != ErrTooShort {
		t.Fatalf("short packet: %v", err)
	}
	p := &PDU{Header: Header{Type: TData}}
	pkt := Encode(p, CkCRC32).CopyBytes()
	pkt[0] = 0xF0 | pkt[0]&0x0f // bogus version
	if _, err := Decode(pkt); err != ErrBadVersion {
		t.Fatalf("bad version: %v", err)
	}
	// The reserved checksum kind 3 must not be accepted unverified as if it
	// were CkNone (whose trailer is zero).
	pkt = Encode(p, CkNone).CopyBytes()
	pkt[1] |= flagCkMask
	if _, err := Decode(pkt); err != ErrBadChecksum {
		t.Fatalf("reserved checksum kind: %v", err)
	}
}

func TestPayloadLengthMismatch(t *testing.T) {
	p := &PDU{Header: Header{Type: TData}, Payload: message.NewFromBytes([]byte("1234"))}
	pkt := Encode(p, CkNone).CopyBytes()
	pkt = append(pkt, 0, 0, 0, 0) // stretch the packet
	if _, err := Decode(pkt); err != ErrBadLength {
		t.Fatalf("length mismatch: %v", err)
	}
}

func TestEncodeDoesNotConsumePayload(t *testing.T) {
	payload := message.NewFromBytes([]byte("retransmit me"))
	p := &PDU{Header: Header{Type: TData, Seq: 1}, Payload: payload}
	pkt1 := Encode(p, CkCRC32)
	pkt2 := Encode(p, CkCRC32) // e.g. a retransmission
	if !bytes.Equal(pkt1.Bytes(), pkt2.Bytes()) {
		t.Fatal("second encode differs")
	}
	if string(payload.Bytes()) != "retransmit me" {
		t.Fatal("encode mutated the retained payload")
	}
	pkt1.Release()
	pkt2.Release()
}

func TestChecksumKindFlagBits(t *testing.T) {
	var h Header
	h.Flags = FlagEOM | FlagMcast
	h.SetChecksum(CkCRC32)
	if h.Checksum() != CkCRC32 {
		t.Fatalf("checksum read back %v", h.Checksum())
	}
	if h.Flags&FlagEOM == 0 || h.Flags&FlagMcast == 0 {
		t.Fatal("SetChecksum clobbered other flags")
	}
}

func TestInternetChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: 0001 f203 f4f5 f6f7 -> sum 0xddf2, checksum ^0xddf2.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := internetChecksum(b); got != ^uint16(0xddf2) {
		t.Fatalf("internetChecksum = %04x, want %04x", got, ^uint16(0xddf2))
	}
}

func TestInternetChecksumOddLength(t *testing.T) {
	if internetChecksum([]byte{0xab}) != ^uint16(0xab00) {
		t.Fatal("odd-length padding wrong")
	}
}

// refInternetChecksum is the RFC 1071 byte-pair loop, one 16-bit word per
// iteration: the reference internetChecksum must match on every input.
func refInternetChecksum(b []byte) uint16 {
	var sum uint32
	n := len(b)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if n%2 == 1 {
		sum += uint32(b[n-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// Differential: the wide-word checksum equals the byte-pair reference for
// every length 0..3000 at every start offset 0..7 (unaligned slices), on
// all-zero, all-0xff (every word add carries) and seeded-random bytes.
func TestInternetChecksumMatchesReference(t *testing.T) {
	const maxLen, maxOff = 3000, 7
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, maxOff+maxLen)
	rng.Read(random)
	for _, tc := range []struct {
		name string
		buf  []byte
	}{
		{"zeros", make([]byte, maxOff+maxLen)},
		{"ones", bytes.Repeat([]byte{0xff}, maxOff+maxLen)},
		{"random", random},
	} {
		for off := 0; off <= maxOff; off++ {
			for n := 0; n <= maxLen; n++ {
				b := tc.buf[off : off+n]
				if got, want := internetChecksum(b), refInternetChecksum(b); got != want {
					t.Fatalf("%s off=%d len=%d: internetChecksum %04x, reference %04x",
						tc.name, off, n, got, want)
				}
			}
		}
	}
}

func FuzzInternetChecksum(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xab})
	f.Add([]byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7})
	f.Add(bytes.Repeat([]byte{0xff}, 37))
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, want := internetChecksum(b), refInternetChecksum(b); got != want {
			t.Fatalf("len=%d: internetChecksum %04x, reference %04x", len(b), got, want)
		}
	})
}

// FuzzDecodeInto throws arbitrary bytes at the PDU decoder. Properties:
// DecodeInto never panics, and every packet it accepts re-encodes
// byte-for-byte under the checksum kind its flags carry.
func FuzzDecodeInto(f *testing.F) {
	for _, ck := range []ChecksumKind{CkNone, CkInternet, CkCRC32} {
		for _, p := range []*PDU{
			{Header: Header{Type: TAck, Ack: 9, Window: 16}},
			{Header: Header{Type: TData, Flags: FlagEOM, ConnID: 7, Seq: 42, Aux: 3},
				Payload: message.NewFromBytes([]byte("hello adaptive"))},
		} {
			pkt := Encode(p, ck)
			f.Add(pkt.CopyBytes())
			pkt.Release()
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var p PDU
		if err := DecodeInto(raw, &p); err != nil {
			return
		}
		defer p.ReleasePayload()
		var re []byte
		if err := EncodeTo(&p, p.Checksum(), func(pkt []byte) error {
			re = append(re, pkt...)
			return nil
		}); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(re, raw) {
			t.Fatalf("re-encode differs:\n got %x\nwant %x", re, raw)
		}
	})
}

// Property: encode/decode round-trips arbitrary headers and payloads.
func TestRoundTripProperty(t *testing.T) {
	f := func(seq, ack, conn uint32, win, aux uint16, payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		p := &PDU{
			Header:  Header{Type: TData, Seq: seq, Ack: ack, ConnID: conn, Window: win, Aux: aux},
			Payload: message.NewFromBytes(payload),
		}
		pkt := Encode(p, CkCRC32)
		got, err := Decode(pkt.Bytes())
		pkt.Release()
		if err != nil {
			return false
		}
		return got.Seq == seq && got.Ack == ack && got.ConnID == conn &&
			got.Window == win && got.Aux == aux &&
			bytes.Equal(got.PayloadBytes(), payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTLVRoundTrip(t *testing.T) {
	var w TLVWriter
	w.PutU8(1, 0xab)
	w.PutU16(2, 0xcdef)
	w.PutU32(3, 0xdeadbeef)
	w.PutU64(4, 0x0123456789abcdef)
	w.PutString(5, "qos")
	w.Put(6, nil)

	r := NewTLVReader(w.Bytes())
	expect := []struct {
		tag uint16
		chk func(v []byte) bool
	}{
		{1, func(v []byte) bool { return U8(v) == 0xab }},
		{2, func(v []byte) bool { return U16(v) == 0xcdef }},
		{3, func(v []byte) bool { return U32(v) == 0xdeadbeef }},
		{4, func(v []byte) bool { return U64(v) == 0x0123456789abcdef }},
		{5, func(v []byte) bool { return string(v) == "qos" }},
		{6, func(v []byte) bool { return len(v) == 0 }},
	}
	for i, e := range expect {
		tag, val, ok, err := r.Next()
		if err != nil || !ok {
			t.Fatalf("field %d: ok=%v err=%v", i, ok, err)
		}
		if tag != e.tag || !e.chk(val) {
			t.Fatalf("field %d: tag=%d val=%x", i, tag, val)
		}
	}
	if _, _, ok, _ := r.Next(); ok {
		t.Fatal("reader did not end")
	}
}

func TestTLVTruncation(t *testing.T) {
	var w TLVWriter
	w.PutU32(9, 123)
	enc := w.Bytes()
	for cut := 1; cut < len(enc); cut++ {
		r := NewTLVReader(enc[:cut])
		_, _, ok, err := r.Next()
		if ok && err == nil && cut < len(enc) {
			t.Fatalf("truncated at %d accepted", cut)
		}
	}
}

func TestTLVUnknownTagsSkippable(t *testing.T) {
	var w TLVWriter
	w.PutU32(1000, 1) // unknown to the reader's vocabulary
	w.PutU8(1, 7)
	r := NewTLVReader(w.Bytes())
	var seen []uint16
	for {
		tag, _, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		seen = append(seen, tag)
	}
	if len(seen) != 2 || seen[1] != 1 {
		t.Fatalf("skip failed: %v", seen)
	}
}

// Property: Decode never panics and never accepts random garbage of any
// length (fuzz-style robustness for the demultiplexer's front door).
func TestDecodeGarbageNeverPanicsProperty(t *testing.T) {
	f := func(pkt []byte) bool {
		defer func() {
			if recover() != nil {
				t.Fatalf("Decode panicked on %x", pkt)
			}
		}()
		p, err := Decode(pkt)
		if err != nil {
			return p == nil
		}
		// Acceptance requires a coherent packet; verify the invariants
		// Decode promises.
		return int(p.PayloadLen) == len(pkt)-Overhead
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: any single-bit flip anywhere in a CRC32-protected packet is
// rejected (exhaustive over positions for a sampled packet).
func TestDecodeBitFlipProperty(t *testing.T) {
	f := func(payload []byte, seq uint32, bit uint16) bool {
		if len(payload) > 4096 {
			payload = payload[:4096]
		}
		p := &PDU{Header: Header{Type: TData, Seq: seq}, Payload: message.NewFromBytes(payload)}
		enc := Encode(p, CkCRC32)
		pkt := enc.CopyBytes()
		enc.Release()
		p.ReleasePayload()
		idx := int(bit) % (len(pkt) * 8)
		pkt[idx/8] ^= 1 << (idx % 8)
		_, err := Decode(pkt)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
