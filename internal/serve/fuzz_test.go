package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// fuzzPool is the largest server slot pool FuzzJobSpec grants from; it keeps
// one input with a huge "slots" from spending the whole fuzz budget.
const fuzzPool = 64

// FuzzJobSpec holds the admission boundary to what the run accepts. Any
// body that decodes the way POST /jobs decodes it must make Validate return,
// never panic; and for an admitted spec, every slot count the scheduler can
// grant it — maxFeasibleSlots for each pool size up to fuzzPool — must build
// a configuration that passes that configuration's own Validate, the check
// the run repeats before its world starts. The seeds are the specs the serve
// tests submit.
func FuzzJobSpec(f *testing.F) {
	okmc := campaignSpec(true)
	okmc.Cells = [3]int{4, 4, 4}
	for _, spec := range []JobSpec{
		mdSpec(0, 4),
		campaignSpec(false),
		campaignSpec(true),
		okmc,
		{Type: TypeMD, Priority: 10, Slots: 1, Steps: 30, TablePoints: 500},
		{Type: TypeMD, Slots: 8, Cells: [3]int{3, 3, 3}},
		{Type: TypeKMC, Slots: 64, Cells: [3]int{20, 10, 10}},
		{Type: TypeKMC, KMCCycles: 12, TThreshold: 0.5},
		{Type: TypeCoupled, Slots: 64},
		{Type: TypeCampaign, Campaign: &CampaignJobSpec{Iters: 2, Energy: 300}},
		{Type: TypeCampaign, Slots: 2, Campaign: &CampaignJobSpec{Iters: 1, DoseIncrement: 1e-3, Spectrum: "150 3\n300 1\n"}},
	} {
		body, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, body := range []string{
		`{}`,
		`{"type":"dft"}`,
		`{"type":"md","cells":[-1,8,8]}`,
		`{"type":"md","warp_factor":9}`,
		`{"type":"md","table_points":1000000000}`,
		`{"type":"kmc","cells":[128,128,65]}`,
		`{"type":"md","cells":[4294967296,4294967296,4294967296]}`,
		`{"type":"md","cells":[6,6,6],"steps":3,"dt":1e300}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil || spec.Validate() != nil {
			return
		}
		for pool := 1; pool <= fuzzPool; pool++ {
			n := spec.maxFeasibleSlots(pool)
			cfg, err := spec.config(n)
			if err != nil {
				t.Fatalf("admitted spec %s: no configuration on its %d-slot grant: %v", body, n, err)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("admitted spec %s: %d-slot configuration fails its own Validate: %v", body, n, err)
			}
		}
	})
}
