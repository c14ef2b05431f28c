package dpf

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Key wire format v4 (little endian), BGI's λ+2 bits per level: the low
// byte of the magic is the format version. With d = bits-early walked
// levels, the control bits of all d levels are packed two per level after
// the seeds, TL of level i at bit 2i and TR at bit 2i+1, LSB first; the
// padding bits of the last byte are zero:
//
//	magic   uint16 = 0xDF04
//	bits    uint8
//	party   uint8
//	early   uint8  (0..MaxEarlyBits, < bits)
//	lanes   uint8  = 1 (keys are scalar)
//	root    [16]byte
//	seeds   d × [16]byte
//	tbits   ⌈d/4⌉ bytes
//	final   2^early × uint32
//
// A key is 22 + 16·d + ⌈d/4⌉ + 4·2^early bytes — the O(λ·log L)
// communication the paper's DPF achieves (§3.1): 266 bytes at the served
// depth on a 2^16-row table, 43 on a 2-row one (which walks full depth).
//
// Earlier builds sent v1 (0xDF01, full depth, a control-bit byte per
// level), v2 (0xDF02, v3's key with a byte per level and a 4-byte lane
// count) and v3 (0xDF03, v4's layout). A v3 key's Final belongs to a leaf
// conversion that kept word 0's low bit; under leafWords it evaluates to
// wrong shares without an error. UnmarshalBinary refuses all three by
// name, so an old client learns which version it sent and which one is
// served.

const keyMagic = 0xDF04

// ServedWire is the one key wire format this build emits and parses;
// refusals of any other name it.
const ServedWire = 4

// WireVersion reports the key wire format version of marshaled data: the
// low byte of any 0xDFxx magic — a newer build's version too, so that a
// refusal names it — or 0 if the buffer is too short to carry a magic or
// carries another one. Validation errors use it to tell a client exactly
// which format it sent.
func WireVersion(data []byte) int {
	if len(data) < 2 {
		return 0
	}
	if m := binary.LittleEndian.Uint16(data); m>>8 == keyMagic>>8 {
		return int(m & 0xff)
	}
	return 0
}

// KeyBytes is the wire size in bytes of the key a 2^bits-row table
// serves (depth DefaultEarly(bits)). The communication cost model uses
// this.
func KeyBytes(bits int) int { return keySize(bits, DefaultEarly(bits)) }

// keySize is the exact wire size of a key of the given shape.
func keySize(bits, early int) int {
	d := bits - early
	return 22 + 16*d + (d+3)/4 + 4<<uint(early)
}

// MarshalBinary implements encoding.BinaryMarshaler: it emits wire v4.
func (k *Key) MarshalBinary() ([]byte, error) {
	if k.Bits <= 0 || k.Bits > MaxBits {
		return nil, fmt.Errorf("dpf: marshal: bad bits %d", k.Bits)
	}
	if k.Early < 0 || k.Early > MaxEarlyBits || k.Early >= k.Bits {
		return nil, fmt.Errorf("dpf: marshal: bad early-termination depth %d for %d bits", k.Early, k.Bits)
	}
	if len(k.CWs) != k.TreeDepth() {
		return nil, fmt.Errorf("dpf: marshal: %d correction words for depth %d", len(k.CWs), k.TreeDepth())
	}
	if len(k.Final) != k.GroupSize() {
		return nil, fmt.Errorf("dpf: marshal: %d final words, want %d", len(k.Final), k.GroupSize())
	}
	out := make([]byte, 0, keySize(k.Bits, k.Early))
	out = binary.LittleEndian.AppendUint16(out, keyMagic)
	out = append(out, byte(k.Bits), k.Party, byte(k.Early), 1)
	out = append(out, k.Root[:]...)
	for _, cw := range k.CWs {
		out = append(out, cw.S[:]...)
	}
	tbits := len(out)
	out = append(out, make([]byte, (len(k.CWs)+3)/4)...)
	for i, cw := range k.CWs {
		out[tbits+i/4] |= (cw.TL | cw.TR<<1) << (2 * (i % 4))
	}
	for _, f := range k.Final {
		out = binary.LittleEndian.AppendUint32(out, f)
	}
	return out, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. It parses wire v4
// in its canonical form only, and is the one place that checks a key is
// scalar (a lanes byte of 1).
func (k *Key) UnmarshalBinary(data []byte) error {
	if len(data) < 2 {
		return errors.New("dpf: unmarshal: short buffer")
	}
	if binary.LittleEndian.Uint16(data) != keyMagic {
		if v := WireVersion(data); v != 0 {
			return fmt.Errorf("dpf: unmarshal: key wire v%d; this build serves key wire v%d", v, ServedWire)
		}
		return errors.New("dpf: unmarshal: bad magic")
	}
	if len(data) < 22 {
		return errors.New("dpf: unmarshal: short buffer")
	}
	bits, party, early, lanes := int(data[2]), data[3], int(data[4]), data[5]
	if early > MaxEarlyBits {
		return fmt.Errorf("dpf: unmarshal: bad early-termination depth %d", early)
	}
	if bits <= 0 || bits > MaxBits {
		return fmt.Errorf("dpf: unmarshal: bad bits %d", bits)
	}
	if early >= bits {
		return fmt.Errorf("dpf: unmarshal: early-termination depth %d leaves no tree levels for %d bits", early, bits)
	}
	if party > 1 {
		return fmt.Errorf("dpf: unmarshal: bad party %d", party)
	}
	if lanes != 1 {
		return fmt.Errorf("dpf: unmarshal: bad lanes %d; keys are scalar (lanes 1)", lanes)
	}
	if want := keySize(bits, early); len(data) != want {
		return fmt.Errorf("dpf: unmarshal: size %d, want %d", len(data), want)
	}
	depth, group := bits-early, 1<<uint(early)
	if pad := depth % 4; pad != 0 && data[len(data)-4*group-1]>>(2*pad) != 0 {
		return errors.New("dpf: unmarshal: nonzero padding bits after the control bits")
	}
	k.Bits, k.Party, k.Early = bits, party, early
	copy(k.Root[:], data[6:22])
	off := 22
	// Reuse the receiver's slices when they are big enough, so pooled keys
	// (engine.Replica's steady-state Answer path) unmarshal without
	// allocating.
	if cap(k.CWs) >= depth {
		k.CWs = k.CWs[:depth]
	} else {
		k.CWs = make([]CW, depth)
	}
	tbits := data[off+16*depth:]
	for i := range k.CWs {
		copy(k.CWs[i].S[:], data[off:off+16])
		tb := tbits[i/4] >> (2 * (i % 4))
		k.CWs[i].TL = tb & 1
		k.CWs[i].TR = tb >> 1 & 1
		off += 16
	}
	off += (depth + 3) / 4
	if cap(k.Final) >= group {
		k.Final = k.Final[:group]
	} else {
		k.Final = make([]uint32, group)
	}
	for i := range k.Final {
		k.Final[i] = binary.LittleEndian.Uint32(data[off:])
		off += 4
	}
	return nil
}
