package halo

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"mdkmc/internal/vec"
)

// Packer serializes every ghost, migrant, dirty-site and site-gather payload
// of the repository, and both engines' rank files (as sealed files, below):
// little-endian, fixed-width, each field matched by the Unpacker method of
// the same name.
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

// A sealed file is a packed payload framed for the disk: a fixed header of
// magic (u32), format version (u32) and total length in bytes (i64), then
// the writer's own header and records, then the CRC-32C (Castagnoli) of
// every byte before it. Each engine's rank file is one, told apart by its
// magic. Format versions 1 and 2 of both rank files were gob streams.
const (
	FileVersion = 3
	fileHead    = 16
	fileTrail   = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// BeginFile empties the buffer, makes room for size bytes, the length the
// file is expected to reach (one allocation at most, on a buffer that has
// not held such a file yet), and packs the header of a sealed file; the
// writer's header and records follow, then Seal.
func (p *Packer) BeginFile(magic uint32, size int) {
	p.buf = slices.Grow(p.buf[:0], size)
	p.I32(int32(magic))
	p.I32(FileVersion)
	p.I64(0) // the length, set by Seal
}

// Seal completes a sealed file begun by BeginFile: it sets the length and
// appends the checksum.
func (p *Packer) Seal() {
	binary.LittleEndian.PutUint64(p.buf[8:], uint64(len(p.buf)+fileTrail))
	p.buf = binary.LittleEndian.AppendUint32(p.buf, crc32.Checksum(p.buf, castagnoli))
}

// OpenFile checks a whole sealed file for package pkg ("md", "kmc") — magic,
// format version, exact length, checksum — before anything in it is read,
// and returns a reader over the writer's header and records. Every error
// carries pkg's prefix. A file that opens holds every byte its length
// declares, so a reader that checks the counts in the writer's header
// against Remaining before it reads the records never reads past the end.
func OpenFile(pkg string, data []byte, magic uint32) (*Unpacker, error) {
	if len(data) < fileHead+fileTrail {
		return nil, fmt.Errorf("%s: truncated rank file: %d bytes, a header and checksum take %d", pkg, len(data), fileHead+fileTrail)
	}
	if err := checkHead(pkg, data, magic); err != nil {
		return nil, err
	}
	if n := binary.LittleEndian.Uint64(data[8:]); n != uint64(len(data)) {
		return nil, fmt.Errorf("%s: rank file length %d, its header declares %d", pkg, len(data), n)
	}
	body := data[:len(data)-fileTrail]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(data[len(body):]); got != want {
		return nil, fmt.Errorf("%s: rank file checksum %08x, its trailer says %08x", pkg, got, want)
	}
	return &Unpacker{pkg: pkg, buf: body, off: fileHead}, nil
}

// checkHead checks the magic and format version of a sealed file's header.
func checkHead(pkg string, head []byte, magic uint32) error {
	if m := binary.LittleEndian.Uint32(head); m != magic {
		return fmt.Errorf("%s: unknown rank file format: magic %#08x, want %#08x (format version %d)", pkg, m, magic, FileVersion)
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v != FileVersion {
		return fmt.Errorf("%s: rank file format version %d, want %d", pkg, v, FileVersion)
	}
	return nil
}

// ReadFile reads one sealed file from rd and opens it (OpenFile). It checks
// the header before it allocates: a length over limit, the most the reader
// can accept, is refused, and the buffer is allocated once at the length
// the header declares. Bytes past that length are refused too.
func ReadFile(pkg string, rd io.Reader, magic uint32, limit int) (*Unpacker, error) {
	var head [fileHead]byte
	if n, err := io.ReadFull(rd, head[:]); err != nil {
		return nil, fmt.Errorf("%s: truncated rank file: %d of %d header bytes", pkg, n, fileHead)
	}
	if err := checkHead(pkg, head[:], magic); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint64(head[8:])
	if n < fileHead+fileTrail || n > uint64(limit) {
		return nil, fmt.Errorf("%s: rank file declares %d bytes, want %d to %d", pkg, n, fileHead+fileTrail, limit)
	}
	data := make([]byte, n)
	copy(data, head[:])
	if got, err := io.ReadFull(rd, data[fileHead:]); err != nil {
		return nil, fmt.Errorf("%s: truncated rank file: %d of the %d bytes its header declares", pkg, fileHead+got, n)
	}
	if _, err := io.ReadFull(rd, head[:1]); err == nil {
		return nil, fmt.Errorf("%s: rank file runs past the %d bytes its header declares", pkg, n)
	}
	return OpenFile(pkg, data, magic)
}

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

// Next returns the next n bytes unread, as a slice of the message.
func (u *Unpacker) Next(n int) []byte { return u.need(n)[:n] }

func (u *Unpacker) Done() bool     { return u.off >= len(u.buf) }
func (u *Unpacker) Remaining() int { return len(u.buf) - u.off }
