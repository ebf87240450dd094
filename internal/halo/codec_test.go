package halo

import (
	"bytes"
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

// TestSealedFile: a sealed file round-trips through ReadFile, and each way
// its frame can be wrong — magic, format version, declared length, bytes
// past it, a length over the reader's limit, the checksum — is refused with
// an error that carries the reader's package prefix and names the fault.
func TestSealedFile(t *testing.T) {
	const magic = 0x54534554 // "TEST"
	var p Packer
	p.BeginFile(magic, 0)
	packAll(&p)
	p.Seal()
	good := bytes.Clone(p.Bytes())
	if want := fileHead + 1 + 2 + 4 + 8 + 8 + 24 + fileTrail; len(good) != want {
		t.Fatalf("sealed %d bytes, want %d", len(good), want)
	}
	u, err := ReadFile("test", bytes.NewReader(good), magic, len(good))
	if err != nil {
		t.Fatal(err)
	}
	if !unpackAll(u) || !u.Done() {
		t.Fatal("round trip through a sealed file failed")
	}

	edit := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(good)) }
	for _, tc := range []struct {
		name  string
		file  []byte
		limit int
		want  string
	}{
		{"empty", nil, len(good), "truncated rank file: 0 of 16 header bytes"},
		{"magic", edit(func(b []byte) []byte { b[0]++; return b }), len(good), "unknown rank file format"},
		{"version", edit(func(b []byte) []byte { b[4] = 2; return b }), len(good), "rank file format version 2, want 3"},
		{"short", good[:len(good)-1], len(good), "truncated rank file"},
		{"long", append(bytes.Clone(good), 0), len(good), "runs past the"},
		{"over the limit", good, len(good) - 1, "rank file declares"},
		{"checksum", edit(func(b []byte) []byte { b[20] ^= 1; return b }), len(good), "rank file checksum"},
	} {
		_, err := ReadFile("test", bytes.NewReader(tc.file), magic, tc.limit)
		if err == nil || !strings.HasPrefix(err.Error(), "test: ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want a test: error naming %q", tc.name, err, tc.want)
		}
	}
	// OpenFile checks the declared length against the bytes it is given.
	if _, err := OpenFile("test", good[:len(good)-1], magic); err == nil || !strings.Contains(err.Error(), "its header declares") {
		t.Errorf("OpenFile of a short file: error %v", err)
	}
}
