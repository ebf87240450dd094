package kmc

import (
	"bytes"
	"encoding/gob"
	"io"
	"reflect"
	"strings"
	"testing"
)

// TestCheckpointResumeIdentical: the resumed trajectory matches the
// uninterrupted one exactly (occupancies and clock).
func TestCheckpointResumeIdentical(t *testing.T) {
	cfg := testConfig()

	var straight map[int]uint8
	var straightTime float64
	runWorld(t, cfg, func(st *State) {
		for i := 0; i < 16; i++ {
			st.Cycle()
		}
		straight = st.Snapshot()
		straightTime = st.Time
	})

	var blob bytes.Buffer
	runWorld(t, cfg, func(st *State) {
		for i := 0; i < 7; i++ {
			st.Cycle()
		}
		if err := st.Save(&blob); err != nil {
			t.Errorf("save: %v", err)
		}
	})

	runWorld(t, cfg, func(st *State) {
		if err := st.Restore(bytes.NewReader(blob.Bytes())); err != nil {
			t.Errorf("restore: %v", err)
			return
		}
		if st.Cycles != 7 {
			t.Errorf("restored cycle count %d", st.Cycles)
		}
		for i := 0; i < 9; i++ {
			st.Cycle()
		}
		if st.Time != straightTime {
			t.Errorf("resumed time %v vs straight %v", st.Time, straightTime)
		}
		snap := st.Snapshot()
		diff := 0
		for k, v := range straight {
			if snap[k] != v {
				diff++
			}
		}
		if diff != 0 {
			t.Errorf("resumed trajectory differs at %d sites", diff)
		}
	})
}

func TestCheckpointRejectsWrongGeometry(t *testing.T) {
	var blob bytes.Buffer
	cfg := testConfig()
	runWorld(t, cfg, func(st *State) {
		if err := st.Save(&blob); err != nil {
			t.Errorf("save: %v", err)
		}
	})
	big := testConfig()
	big.Cells = [3]int{14, 14, 14}
	runWorld(t, big, func(st *State) {
		if err := st.Restore(bytes.NewReader(blob.Bytes())); err == nil {
			t.Errorf("mismatched geometry accepted")
		}
	})
}

// TestCheckpointResumeIdenticalProtocols is the round-trip property on a
// 2-rank decomposition under every ghost protocol: Save after 7 cycles,
// Restore into fresh states, run 9 more — occupancies, clock, and the
// cumulative event counter must match 16 straight cycles bit-exactly.
func TestCheckpointResumeIdenticalProtocols(t *testing.T) {
	for _, proto := range []Protocol{Traditional, OnDemand, OnDemandOneSided} {
		t.Run(proto.String(), func(t *testing.T) {
			cfg := testConfig()
			cfg.Cells = [3]int{24, 12, 12}
			cfg.Grid = [3]int{2, 1, 1}
			cfg.Protocol = proto
			ranks := cfg.Ranks()

			straight := make([]map[int]uint8, ranks)
			straightEvents := make([]int, ranks)
			var straightTime float64
			runWorld(t, cfg, func(st *State) {
				for i := 0; i < 16; i++ {
					st.Cycle()
				}
				r := st.Comm.Rank()
				straight[r] = st.Snapshot()
				straightEvents[r] = st.Events
				if r == 0 {
					straightTime = st.Time
				}
			})

			blobs := make([]bytes.Buffer, ranks)
			runWorld(t, cfg, func(st *State) {
				for i := 0; i < 7; i++ {
					st.Cycle()
				}
				if err := st.Save(&blobs[st.Comm.Rank()]); err != nil {
					t.Errorf("save: %v", err)
				}
			})

			runWorld(t, cfg, func(st *State) {
				r := st.Comm.Rank()
				if err := st.Restore(bytes.NewReader(blobs[r].Bytes())); err != nil {
					t.Errorf("restore: %v", err)
					return
				}
				for i := 0; i < 9; i++ {
					st.Cycle()
				}
				if r == 0 && st.Time != straightTime {
					t.Errorf("resumed time %v vs straight %v", st.Time, straightTime)
				}
				if st.Events != straightEvents[r] {
					t.Errorf("rank %d resumed events %d vs straight %d", r, st.Events, straightEvents[r])
				}
				snap := st.Snapshot()
				diff := 0
				for k, v := range straight[r] {
					if snap[k] != v {
						diff++
					}
				}
				if diff != 0 {
					t.Errorf("rank %d resumed trajectory differs at %d sites", r, diff)
				}
			})
		})
	}
}

// TestRestoreRejectsCorruptCheckpoint: the KMC side of the checkpoint trust
// boundary. A short Rho used to be copied partially and an unknown occupancy
// code to index past the per-species tables later; both, like a short Occ,
// must fail Restore and RestoreResharded with an error naming the field, and
// a rejected Restore must leave the state untouched.
func TestRestoreRejectsCorruptCheckpoint(t *testing.T) {
	cfg := testConfig()
	var good bytes.Buffer
	runWorld(t, cfg, func(st *State) {
		for i := 0; i < 3; i++ {
			st.Cycle()
		}
		if err := st.Save(&good); err != nil {
			t.Errorf("save: %v", err)
		}
	})
	cases := []struct {
		name   string
		mutate func(cp *checkpoint)
		want   string
	}{
		{"short Occ", func(cp *checkpoint) { cp.Occ = cp.Occ[:len(cp.Occ)-1] }, "field Occ has"},
		{"short Rho", func(cp *checkpoint) { cp.Rho = cp.Rho[:len(cp.Rho)/2] }, "field Rho has"},
		{"bad occupancy code", func(cp *checkpoint) { cp.Occ[17] = 3 }, "field Occ[17] holds unknown occupancy code 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cp checkpoint
			if err := gob.NewDecoder(bytes.NewReader(good.Bytes())).Decode(&cp); err != nil {
				t.Fatalf("decode: %v", err)
			}
			tc.mutate(&cp)
			var bad bytes.Buffer
			if err := gob.NewEncoder(&bad).Encode(cp); err != nil {
				t.Fatalf("encode: %v", err)
			}
			check := func(op string, err error) {
				t.Helper()
				if err == nil {
					t.Errorf("%s accepted the corrupt checkpoint", op)
				} else if msg := err.Error(); !strings.HasPrefix(msg, "kmc: ") || !strings.Contains(msg, tc.want) {
					t.Errorf("%s error %q does not name %q", op, msg, tc.want)
				}
			}
			runWorld(t, cfg, func(st *State) {
				occ := append([]uint8(nil), st.Occ...)
				rho := append([]float64(nil), st.Rho...)
				check("Restore", st.Restore(bytes.NewReader(bad.Bytes())))
				if !reflect.DeepEqual(occ, st.Occ) || !reflect.DeepEqual(rho, st.Rho) || st.Cycles != 0 {
					t.Errorf("rejected Restore modified the live state")
				}
				check("RestoreResharded", st.RestoreResharded(ShardSource{
					Grid: st.Grid,
					Open: func(int) (io.ReadCloser, error) {
						return io.NopCloser(bytes.NewReader(bad.Bytes())), nil
					},
				}))
			})
		})
	}
}
