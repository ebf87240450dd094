package halo

import (
	"encoding/binary"
	"fmt"
	"math"

	"mdkmc/internal/vec"
)

// Packer serializes every ghost, migrant, dirty-site and site-gather payload
// of the repository: little-endian, fixed-width, each field matched by the
// Unpacker method of the same name.
type Packer struct{ buf []byte }

// Reset empties the buffer but keeps its capacity, so a Packer reused across
// steps stops allocating once it has grown to the steady-state message size
// (mpi.Comm.Send copies the payload, so the buffer is free to reuse as soon
// as Send returns).
func (p *Packer) Reset() { p.buf = p.buf[:0] }

// Bytes returns the packed payload; it is valid until the next Reset.
func (p *Packer) Bytes() []byte { return p.buf }

func (p *Packer) U8(v uint8)   { p.buf = append(p.buf, v) }
func (p *Packer) U16(v uint16) { p.buf = binary.LittleEndian.AppendUint16(p.buf, v) }
func (p *Packer) I32(v int32)  { p.buf = binary.LittleEndian.AppendUint32(p.buf, uint32(v)) }
func (p *Packer) I64(v int64)  { p.buf = binary.LittleEndian.AppendUint64(p.buf, uint64(v)) }
func (p *Packer) F64(v float64) {
	p.buf = binary.LittleEndian.AppendUint64(p.buf, math.Float64bits(v))
}
func (p *Packer) Vec(v vec.V) { p.F64(v.X); p.F64(v.Y); p.F64(v.Z) }

// Unpacker is the matching reader. Every read is bounds-checked: a truncated
// message fails as a descriptive error carrying the receiving package's
// prefix (which the mpi runtime converts into a RankPanic the caller can
// report), never as a raw slice-bounds panic.
type Unpacker struct {
	pkg string
	buf []byte
	off int
}

// NewUnpacker reads data on behalf of package pkg ("md", "kmc", ...).
func NewUnpacker(pkg string, data []byte) *Unpacker {
	return &Unpacker{pkg: pkg, buf: data}
}

// Reset points the reader at a new message, so one Unpacker serves a whole
// exchange without allocating.
func (u *Unpacker) Reset(data []byte) { u.buf, u.off = data, 0 }

// need returns the next n bytes, or fails the read. The failure is a typed
// panic value with no call on the path, so need and every reader inline
// into the unpack loops.
func (u *Unpacker) need(n int) []byte {
	b := u.buf[u.off:]
	if len(b) < n {
		//mdvet:ignore errpanic a peer rank caused it; the mpi runtime converts rank panics into RankPanic errors, so this fails the job, not the process
		panic(&truncatedError{pkg: u.pkg, need: n, off: u.off, size: len(u.buf)})
	}
	u.off += n
	return b
}

// truncatedError reports a read past the end of a message.
type truncatedError struct {
	pkg             string
	need, off, size int
}

func (e *truncatedError) Error() string {
	what := map[int]string{1: "u8", 2: "u16", 4: "i32", 8: "i64/f64", 24: "vec"}[e.need]
	return fmt.Sprintf("%s: truncated ghost message: need %d byte(s) for %s at offset %d of %d",
		e.pkg, e.need, what, e.off, e.size)
}

func (u *Unpacker) U8() uint8   { return u.need(1)[0] }
func (u *Unpacker) U16() uint16 { return binary.LittleEndian.Uint16(u.need(2)) }
func (u *Unpacker) I32() int32  { return int32(binary.LittleEndian.Uint32(u.need(4))) }
func (u *Unpacker) I64() int64  { return int64(binary.LittleEndian.Uint64(u.need(8))) }
func (u *Unpacker) F64() float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(u.need(8)))
}
func (u *Unpacker) Vec() vec.V {
	b := u.need(24)
	word := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b[i:])) }
	return vec.V{X: word(0), Y: word(8), Z: word(16)}
}
func (u *Unpacker) Done() bool     { return u.off >= len(u.buf) }
func (u *Unpacker) Remaining() int { return len(u.buf) - u.off }
