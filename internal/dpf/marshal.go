package dpf

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Wire formats (little endian). The low byte of the magic is the format
// version; unmarshal dispatches on it, so old clients' keys still parse and
// evaluate. MarshalBinary emits v1 for full-depth keys and v3 for
// early-terminated ones. Servers serve v3 (ServedWire) and refuse a v2 key
// by name; a full-depth v1 key is served only on a table whose tree is too
// shallow to terminate early.
//
// v1 (magic 0xDF01) — full-depth keys (Early = 0):
//
//	magic   uint16 = 0xDF01
//	bits    uint8
//	party   uint8
//	lanes   uint32
//	root    [16]byte
//	cw      bits × { seed [16]byte; tbits uint8 (bit0=TL, bit1=TR) }
//	final   lanes × uint32
//
// v2 (magic 0xDF02) — early-terminated keys (§3.1): the header gains the
// termination depth, the walk carries bits-early correction words, and the
// final correction spans the whole terminal group:
//
//	magic   uint16 = 0xDF02
//	bits    uint8
//	party   uint8
//	early   uint8  (1..MaxEarlyBits)
//	lanes   uint32
//	root    [16]byte
//	cw      (bits-early) × { seed [16]byte; tbits uint8 }
//	final   (lanes<<early) × uint32
//
// v3 (magic 0xDF03) — v2's key at BGI's λ+2 bits per level: the lane count
// is one byte (an early-terminated group holds at most 4 lanes), and the
// control bits of all d = bits-early levels are packed two per level after
// the seeds, TL of level i at bit 2i and TR at bit 2i+1, LSB first; the
// padding bits of the last byte are zero:
//
//	magic   uint16 = 0xDF03
//	bits    uint8
//	party   uint8
//	early   uint8  (1..MaxEarlyBits)
//	lanes   uint8  (lanes<<early ≤ 4)
//	root    [16]byte
//	seeds   d × [16]byte
//	tbits   ⌈d/4⌉ bytes
//	final   (lanes<<early) × uint32
//
// A v1 scalar key is 24 + 17·log2(L) + 4 bytes — the O(λ·log L)
// communication the paper's DPF achieves (§3.1): ~364 bytes for a 1M-entry
// table. The default v3 scalar key is 22 + 16·d + ⌈d/4⌉ + 16 bytes with
// d = log2(L)-2: 266 bytes for 2^16 rows, where v2 spent 279.

const (
	keyMagicV1 = 0xDF01
	keyMagicV2 = 0xDF02
	keyMagicV3 = 0xDF03
)

// ServedWire is the key wire format servers accept for early-terminated
// keys; the engine refuses any other by name.
const ServedWire = 3

// WireVersion reports the key wire format version of marshaled data: 1, 2
// or 3, or 0 if the buffer is too short to carry a magic or carries an
// unknown one. Engine validation errors use it to tell a client exactly
// which format it sent.
func WireVersion(data []byte) int {
	if len(data) < 2 {
		return 0
	}
	switch binary.LittleEndian.Uint16(data) {
	case keyMagicV1:
		return 1
	case keyMagicV2:
		return 2
	case keyMagicV3:
		return 3
	}
	return 0
}

// MarshaledSize returns the exact wire size in bytes of a full-depth (v1)
// key for the given tree depth and lane count.
func MarshaledSize(bits, lanes int) int {
	return wireSize(1, bits, lanes, 0)
}

// MarshaledSizeEarly returns the exact wire size in bytes of the key
// MarshalBinary emits for the given early-termination depth: v1 at
// early = 0, v3 otherwise. The communication cost model uses this.
func MarshaledSizeEarly(bits, lanes, early int) int {
	if early == 0 {
		return wireSize(1, bits, lanes, 0)
	}
	return wireSize(3, bits, lanes, early)
}

// wireSize is the exact size of a key in wire format version v.
func wireSize(v, bits, lanes, early int) int {
	d, group := bits-early, lanes<<uint(early)
	switch v {
	case 1:
		return 24 + 17*bits + 4*lanes
	case 2:
		return 25 + 17*d + 4*group
	}
	return 22 + 16*d + (d+3)/4 + 4*group
}

// MarshalBinary implements encoding.BinaryMarshaler. A key emits the wire
// format it was parsed from (Wire), or with Wire = 0 the one servers take:
// v1 at full depth, v3 when early-terminated.
func (k *Key) MarshalBinary() ([]byte, error) {
	if k.Bits <= 0 || k.Bits > MaxBits {
		return nil, fmt.Errorf("dpf: marshal: bad bits %d", k.Bits)
	}
	if k.Early < 0 || k.Early > MaxEarlyBits || k.Early >= k.Bits {
		return nil, fmt.Errorf("dpf: marshal: bad early-termination depth %d for %d bits", k.Early, k.Bits)
	}
	if k.Early > 0 && k.GroupLanes() > 4 {
		return nil, fmt.Errorf("dpf: marshal: terminal group of %d lanes exceeds the 4 a seed holds", k.GroupLanes())
	}
	if len(k.CWs) != k.TreeDepth() {
		return nil, fmt.Errorf("dpf: marshal: %d correction words for depth %d", len(k.CWs), k.TreeDepth())
	}
	if len(k.Final) != k.GroupLanes() {
		return nil, fmt.Errorf("dpf: marshal: %d final lanes, want %d", len(k.Final), k.GroupLanes())
	}
	v := k.Wire
	if v == 0 {
		v = ServedWire
		if k.Early == 0 {
			v = 1
		}
	}
	if v < 1 || v > 3 || (v == 1) != (k.Early == 0) {
		return nil, fmt.Errorf("dpf: marshal: wire v%d cannot carry early-termination depth %d", v, k.Early)
	}
	out := make([]byte, 0, wireSize(v, k.Bits, k.Lanes, k.Early))
	out = binary.LittleEndian.AppendUint16(out, 0xDF00|uint16(v))
	out = append(out, byte(k.Bits), k.Party)
	switch v {
	case 1:
		out = binary.LittleEndian.AppendUint32(out, uint32(k.Lanes))
	case 2:
		out = append(out, byte(k.Early))
		out = binary.LittleEndian.AppendUint32(out, uint32(k.Lanes))
	case 3:
		out = append(out, byte(k.Early), byte(k.Lanes))
	}
	out = append(out, k.Root[:]...)
	if v == 3 {
		for _, cw := range k.CWs {
			out = append(out, cw.S[:]...)
		}
		tbits := len(out)
		out = append(out, make([]byte, (len(k.CWs)+3)/4)...)
		for i, cw := range k.CWs {
			out[tbits+i/4] |= (cw.TL | cw.TR<<1) << (2 * (i % 4))
		}
	} else {
		for _, cw := range k.CWs {
			out = append(out, cw.S[:]...)
			out = append(out, cw.TL|cw.TR<<1)
		}
	}
	for _, f := range k.Final {
		out = binary.LittleEndian.AppendUint32(out, f)
	}
	return out, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. All three wire
// versions unmarshal, and each only in its canonical form; v1 keys
// evaluate full-depth (Early = 0). Wire records the version parsed.
func (k *Key) UnmarshalBinary(data []byte) error {
	if len(data) < 4 {
		return errors.New("dpf: unmarshal: short buffer")
	}
	var v, early, lanes, off int
	switch binary.LittleEndian.Uint16(data) {
	case keyMagicV1:
		if len(data) < 24 {
			return errors.New("dpf: unmarshal: short buffer")
		}
		v, lanes, off = 1, int(binary.LittleEndian.Uint32(data[4:])), 8
	case keyMagicV2:
		if len(data) < 25 {
			return errors.New("dpf: unmarshal: short buffer")
		}
		v, early, lanes, off = 2, int(data[4]), int(binary.LittleEndian.Uint32(data[5:])), 9
	case keyMagicV3:
		if len(data) < 22 {
			return errors.New("dpf: unmarshal: short buffer")
		}
		v, early, lanes, off = 3, int(data[4]), int(data[5]), 6
	default:
		return errors.New("dpf: unmarshal: bad magic")
	}
	if v > 1 && (early < 1 || early > MaxEarlyBits) {
		return fmt.Errorf("dpf: unmarshal: bad early-termination depth %d", early)
	}
	bits := int(data[2])
	party := data[3]
	if bits <= 0 || bits > MaxBits {
		return fmt.Errorf("dpf: unmarshal: bad bits %d", bits)
	}
	if early >= bits {
		return fmt.Errorf("dpf: unmarshal: early-termination depth %d leaves no tree levels for %d bits", early, bits)
	}
	if party > 1 {
		return fmt.Errorf("dpf: unmarshal: bad party %d", party)
	}
	if lanes <= 0 || lanes > 1<<20 {
		return fmt.Errorf("dpf: unmarshal: bad lanes %d", lanes)
	}
	groupLanes := lanes << uint(early)
	if early > 0 && groupLanes > 4 {
		return fmt.Errorf("dpf: unmarshal: terminal group of %d lanes exceeds the 4 a seed holds", groupLanes)
	}
	if want := wireSize(v, bits, lanes, early); len(data) != want {
		return fmt.Errorf("dpf: unmarshal: size %d, want %d", len(data), want)
	}
	depth := bits - early
	if v == 3 {
		if pad := depth % 4; pad != 0 && data[len(data)-4*groupLanes-1]>>(2*pad) != 0 {
			return errors.New("dpf: unmarshal: nonzero padding bits after the control bits")
		}
	}
	k.Bits, k.Party, k.Lanes, k.Early, k.Wire = bits, party, lanes, early, v
	copy(k.Root[:], data[off:off+16])
	off += 16
	// Reuse the receiver's slices when they are big enough, so pooled keys
	// (engine.Replica's steady-state Answer path) unmarshal without
	// allocating.
	if cap(k.CWs) >= depth {
		k.CWs = k.CWs[:depth]
	} else {
		k.CWs = make([]CW, depth)
	}
	if v == 3 {
		tbits := data[off+16*depth:]
		for i := range k.CWs {
			copy(k.CWs[i].S[:], data[off:off+16])
			tb := tbits[i/4] >> (2 * (i % 4))
			k.CWs[i].TL = tb & 1
			k.CWs[i].TR = tb >> 1 & 1
			off += 16
		}
		off += (depth + 3) / 4
	} else {
		for i := range k.CWs {
			copy(k.CWs[i].S[:], data[off:off+16])
			tb := data[off+16]
			if tb > 3 {
				return fmt.Errorf("dpf: unmarshal: bad control bits %#x at level %d", tb, i)
			}
			k.CWs[i].TL = tb & 1
			k.CWs[i].TR = tb >> 1
			off += 17
		}
	}
	if cap(k.Final) >= groupLanes {
		k.Final = k.Final[:groupLanes]
	} else {
		k.Final = make([]uint32, groupLanes)
	}
	for i := range k.Final {
		k.Final[i] = binary.LittleEndian.Uint32(data[off:])
		off += 4
	}
	return nil
}
