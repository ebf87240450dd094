package halo

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mdkmc/internal/vec"
)

// packAll writes one value of every field type.
func packAll(p *Packer) {
	p.U8(200)
	p.U16(65000)
	p.I32(math.MinInt32)
	p.I64(-42)
	p.F64(math.Pi)
	p.Vec(vec.V{X: 1, Y: -2, Z: math.SmallestNonzeroFloat64})
}

func unpackAll(u *Unpacker) bool {
	return u.U8() == 200 && u.U16() == 65000 && u.I32() == math.MinInt32 && u.I64() == -42 &&
		u.F64() == math.Pi && u.Vec() == vec.V{X: 1, Y: -2, Z: math.SmallestNonzeroFloat64}
}

func TestCodecRoundTrip(t *testing.T) {
	var p Packer
	packAll(&p)
	if want := 1 + 2 + 4 + 8 + 8 + 24; len(p.Bytes()) != want {
		t.Fatalf("packed %d bytes, want the fixed-width %d", len(p.Bytes()), want)
	}
	if got := p.Bytes()[3:7]; got[0] != 0 || got[3] != 0x80 {
		t.Errorf("i32 bytes %x are not little-endian", got)
	}
	u := NewUnpacker("test", p.Bytes())
	if !unpackAll(u) || !u.Done() || u.Remaining() != 0 {
		t.Fatalf("round trip failed (done=%v, %d bytes left)", u.Done(), u.Remaining())
	}

	// Reset keeps the capacity and starts a fresh message; a reused reader
	// starts over too.
	grown := cap(p.Bytes())
	p.Reset()
	if len(p.Bytes()) != 0 || cap(p.Bytes()) != grown {
		t.Fatalf("Reset left len %d cap %d, want 0 and %d", len(p.Bytes()), cap(p.Bytes()), grown)
	}
	packAll(&p)
	u.Reset(p.Bytes())
	if !unpackAll(u) || !u.Done() {
		t.Fatal("round trip through a reused packer and unpacker failed")
	}
}

// TestCodecTruncation: every strict prefix of a message fails with an error
// that carries the reader's package prefix, the missing width and the
// offset — never a raw slice-bounds panic.
func TestCodecTruncation(t *testing.T) {
	var p Packer
	packAll(&p)
	for cut := 0; cut < len(p.Bytes()); cut++ {
		func() {
			defer func() {
				err, ok := recover().(error)
				if !ok {
					t.Fatalf("cut %d: recovered a non-error (or nothing)", cut)
				}
				for _, want := range []string{"md: truncated ghost message: need ", " byte(s) for ", " at offset "} {
					if !strings.Contains(err.Error(), want) {
						t.Fatalf("cut %d: error %q lacks %q", cut, err, want)
					}
				}
				if !strings.HasSuffix(err.Error(), fmt.Sprintf(" of %d", cut)) {
					t.Fatalf("cut %d: error %q does not end with the message length", cut, err)
				}
			}()
			unpackAll(NewUnpacker("md", p.Bytes()[:cut]))
		}()
	}
}
