// Package binder models Android's Binder IPC as the paper's workloads use
// it: parcels marshalled into per-process /dev/binder transaction buffers, a
// driver that routes transactions to registered services, and per-process
// "Binder Thread #N" pools that execute incoming calls. Binder is what makes
// Android reference profiles multi-process — every framework interaction
// crosses at least one process boundary.
package binder

import (
	"encoding/binary"
	"fmt"
)

// Parcel is a Binder payload: a flat, little-endian marshalled buffer, built
// and consumed for real so transaction sizes (and hence reference counts)
// follow the actual data.
type Parcel struct {
	buf []byte
	off int
	// inline backs buf for the common case: framework transactions are a
	// few dozen bytes (an interface token, a label, a verb), so marshalling
	// one costs no append growth. Larger payloads spill to the heap.
	inline [64]byte
}

// NewParcel returns an empty parcel.
func NewParcel() *Parcel {
	p := &Parcel{}
	p.buf = p.inline[:0]
	return p
}

// Words reports the 4-byte word count (the unit the copy cost model uses).
func (p *Parcel) Words() uint64 { return uint64((len(p.buf) + 3) / 4) }

// WriteInt32 appends a 32-bit value.
func (p *Parcel) WriteInt32(v int32) {
	p.buf = binary.LittleEndian.AppendUint32(p.buf, uint32(v))
}

// WriteString appends a length-prefixed string.
func (p *Parcel) WriteString(s string) {
	p.WriteInt32(int32(len(s)))
	p.buf = append(p.buf, s...)
	for len(p.buf)%4 != 0 {
		p.buf = append(p.buf, 0)
	}
}

// ReadInt32 consumes a 32-bit value.
func (p *Parcel) ReadInt32() (int32, error) {
	if p.off+4 > len(p.buf) {
		return 0, fmt.Errorf("binder: parcel underrun at %d", p.off)
	}
	v := binary.LittleEndian.Uint32(p.buf[p.off:])
	p.off += 4
	return int32(v), nil
}

// ReadString consumes a length-prefixed string.
func (p *Parcel) ReadString() (string, error) {
	n, err := p.ReadInt32()
	if err != nil {
		return "", err
	}
	if n < 0 || p.off+int(n) > len(p.buf) {
		return "", fmt.Errorf("binder: bad string length %d", n)
	}
	s := string(p.buf[p.off : p.off+int(n)])
	p.off += int(n)
	for p.off%4 != 0 && p.off < len(p.buf) {
		p.off++
	}
	return s, nil
}

// Rewind resets the read cursor.
func (p *Parcel) Rewind() { p.off = 0 }
