package eam

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadSetfl drives readSetfl, the round-trip oracle of WriteSetfl, with
// arbitrary bytes. The contract under test: malformed input must come back
// as an error, never a panic, and any accepted file must yield tables that
// are safe to evaluate over their whole domain (the NaN-spacing regression:
// a "nan" grid spacing used to pass the dimension checks and crash the
// first Table.Eval with an out-of-range index).
//
// The seed corpus starts from the exact bytes `cmd/potential -export`
// writes (WriteSetfl of the analytic Fe potential), plus targeted
// corruptions of its header, dimension line, and body.
func FuzzReadSetfl(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteSetfl(&valid, NewFe(Analytic, 64), 64); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	lines := strings.Split(valid.String(), "\n")
	corrupt := func(i int, repl string) []byte {
		mut := append([]string(nil), lines...)
		mut[i] = repl
		return []byte(strings.Join(mut, "\n"))
	}
	f.Add([]byte(""))
	f.Add([]byte("c1\nc2\nc3\n1 Fe\n8 0.1 8 0.1 5.3\n26 55.845 2.855 BCC\n1 2 3\n"))
	f.Add([]byte(strings.Join(lines[:10], "\n"))) // truncated body
	f.Add(corrupt(3, "2 Fe Cu"))                  // multi-element
	f.Add(corrupt(3, "1 Xx"))                     // unknown element
	f.Add(corrupt(4, "64 nan 64 inf 5.3"))        // non-finite spacings
	f.Add(corrupt(4, "99999999999999999999 0.1 8 0.1 5.3"))
	f.Add(corrupt(5, "26 not-a-mass 2.855 BCC"))
	f.Add(corrupt(7, "definitely not a float"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tabs, err := readSetfl(bytes.NewReader(data))
		if err != nil {
			return // rejection is the correct outcome for malformed input
		}
		// Accepted input: the structural invariants the simulation relies
		// on must hold, and evaluation anywhere in range must not panic.
		if tabs.Cutoff <= 0 {
			t.Fatalf("accepted cutoff %v", tabs.Cutoff)
		}
		if tabs.Embed.N() < 7 || tabs.Density.N() < 7 || tabs.RPhi.N() < 7 {
			t.Fatalf("accepted under-resolved tables: %d/%d/%d segments",
				tabs.Embed.N(), tabs.Density.N(), tabs.RPhi.N())
		}
		for _, r := range []float64{0, tabs.Cutoff * 0.37, tabs.Cutoff, 2 * tabs.Cutoff} {
			tabs.Pair(r)
			tabs.Density.Eval(r)
			tabs.Embed.Eval(r)
		}
	})
}
