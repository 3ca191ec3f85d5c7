package wire

import (
	"encoding/binary"
	"hash/crc32"
	"math/bits"
)

// checksum computes the trailer value for body under the given kind. The
// trailer is always 4 bytes on the wire; the 16-bit Internet checksum
// occupies the low half (high half zero) to keep the trailer word-aligned.
// Kinds above CkCRC32 are reserved; DecodeInto rejects them before calling
// here.
func checksum(kind ChecksumKind, body []byte) uint32 {
	switch kind {
	case CkNone:
		return 0
	case CkInternet:
		return uint32(internetChecksum(body))
	case CkCRC32:
		return crc32.ChecksumIEEE(body)
	default:
		return 0
	}
}

// internetChecksum is the RFC 1071 16-bit one's-complement sum, computed a
// 64-bit word at a time (RFC 1071 §2). One's-complement addition is
// associative and commutative, so summing four 16-bit words per 64-bit add
// with end-around carry and folding at the end gives the same value as the
// byte-pair loop. It is also byte-order independent: the words are loaded
// little-endian (no byte swap per load) and the folded sum is swapped once.
func internetChecksum(b []byte) uint16 {
	var sum, c uint64
	// The adds form one carry chain; 64 bytes per iteration keeps the
	// per-iteration carry save/restore off most of it.
	for len(b) >= 64 {
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b), c)
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b[8:]), c)
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b[16:]), c)
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b[24:]), c)
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b[32:]), c)
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b[40:]), c)
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b[48:]), c)
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b[56:]), c)
		b = b[64:]
	}
	for len(b) >= 8 {
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b), c)
		b = b[8:]
	}
	// The 0-7 byte tail becomes one zero-padded word. It starts at an even
	// offset, so an odd last byte lands in the high half of its 16-bit word
	// once swapped, which is RFC 1071's padding.
	var tail uint64
	var shift uint
	if len(b) >= 4 {
		tail = uint64(binary.LittleEndian.Uint32(b))
		b = b[4:]
		shift = 32
	}
	if len(b) >= 2 {
		tail |= uint64(binary.LittleEndian.Uint16(b)) << shift
		b = b[2:]
		shift += 16
	}
	if len(b) == 1 {
		tail |= uint64(b[0]) << shift
	}
	sum, c = bits.Add64(sum, tail, c)
	sum += c // end-around carry: tail < 2^56, so a carried sum is small

	// Fold 64 -> 16 bits, adding each carry back in.
	sum = sum>>32 + sum&0xffffffff
	sum = sum>>16 + sum&0xffff
	sum = sum>>16 + sum&0xffff
	sum = sum>>16 + sum&0xffff
	return ^bits.ReverseBytes16(uint16(sum))
}
