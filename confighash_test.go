package mdkmc_test

import (
	"reflect"
	"testing"

	"mdkmc/internal/couple"
	"mdkmc/internal/kmc"
	"mdkmc/internal/md"
)

// hashNeutral lists the config fields a restart may change: each is keyed
// by its declaring struct and field name, so couple.Config.MD reuses the
// md.Config rows. Every other field must feed Hash.
var hashNeutral = map[string]string{
	"md.Config.Grid":    "topology knob (DESIGN.md §14): recorded in the manifest and re-sharded on restart",
	"md.Config.Cuts":    "topology knob (DESIGN.md §14): the re-shard loader handles boundary changes",
	"md.Config.Workers": "bit-identical speed knob (DESIGN.md §9): the chunked reduction makes results independent of the pool size",

	"kmc.Config.Grid":     "topology knob (DESIGN.md §14): recorded in the manifest and re-sharded on restart",
	"kmc.Config.Cuts":     "topology knob (DESIGN.md §14): the re-shard loader handles boundary changes",
	"kmc.Config.Protocol": "bit-identical communication knob (DESIGN.md §7): both ghost protocols yield the same trajectory",

	"couple.Config.Protocol":   "bit-identical communication knob (DESIGN.md §7): both ghost protocols yield the same trajectory, as for kmc.Config.Protocol",
	"couple.Config.Checkpoint": "fault-tolerance settings: snapshot cadence and crash plan must not pin a checkpoint to the schedule that produced it, and an evicted run resumes under the same digest",
	"couple.Config.Rebalance":  "topology knob (DESIGN.md §14): repartitioning redistributes work without changing the trajectory",
	"couple.Config.Telemetry":  "observability knob: an instrumented run is bit-identical to an uninstrumented one",
}

// TestConfigHashCoversEveryField is the completeness check behind restart
// refusal: a checkpoint resumes only under a configuration whose Hash
// matches, so a field that changes the trajectory but not Hash would let a
// restart silently continue a different run. Every exported leaf of the
// three hashed configs is perturbed in turn — ints +1, floats scaled, bools
// flipped, strings extended, arrays at element 0, slices appended, pointers
// nil↔new, structs and non-nil pointees recursed into. A leaf outside
// hashNeutral must change Hash and a leaf inside it must not. An unexported
// or unperturbable field outside hashNeutral fails, so a new field forces
// the same decision.
func TestConfigHashCoversEveryField(t *testing.T) {
	mdCfg := md.DefaultConfig()
	mdCfg.Workers = 2
	mdCfg.CuFraction = 0.01
	mdCfg.PKA = &md.PKA{Energy: 500, Direction: [3]float64{1, 2, 3}}
	mdCfg.Thermostat = &md.Berendsen{Target: 300, Tau: 0.1}

	kmcCfg := kmc.DefaultConfig()
	kmcCfg.Vacancies = []int{5, 9}
	kmcCfg.CuConcentration = 0.01
	kmcCfg.CuSites = []int{3}
	kmcCfg.EmCu = 0.5

	// Campaign mode is on, so the campaign fields join the digest. The
	// spectrum stays nil: its contents are digested by Spectrum.Digest, and
	// nil↔new switches the recoil source.
	cCfg := couple.Config{
		MD:         mdCfg,
		KMCCycles:  20,
		TThreshold: 1e-3,
		Protocol:   kmc.OnDemand,
		Campaign: couple.CampaignSpec{
			Iters: 2, DoseIncrement: 1e-3, Energy: 500,
			MinSeparation: 7,
		},
		Checkpoint: couple.Checkpoint{Dir: "ckpt", Every: 5},
	}

	used := map[string]bool{}
	for _, c := range []struct {
		name string
		cfg  any // pointer to the config
		hash func() string
	}{
		{"md", &mdCfg, mdCfg.Hash},
		{"kmc", &kmcCfg, kmcCfg.Hash},
		{"couple", &cCfg, cCfg.Hash},
	} {
		t.Run(c.name, func(t *testing.T) {
			checkHashCoverage(t, reflect.ValueOf(c.cfg).Elem(), c.hash, used)
		})
	}
	for key, reason := range hashNeutral {
		if !used[key] {
			t.Errorf("hashNeutral row %s (%s) matches no field", key, reason)
		}
	}
}

// checkHashCoverage perturbs every leaf of cfg in place, compares hash()
// with the unperturbed digest, and restores the leaf.
func checkHashCoverage(t *testing.T, cfg reflect.Value, hash func() string, used map[string]bool) {
	want := hash()
	var walk func(path string, v reflect.Value, neutral string)
	walk = func(path string, v reflect.Value, neutral string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				key := v.Type().String() + "." + f.Name
				fieldNeutral := neutral
				if reason, ok := hashNeutral[key]; ok {
					used[key] = true
					fieldNeutral = reason
				}
				switch {
				case f.IsExported():
					walk(path+"."+f.Name, v.Field(i), fieldNeutral)
				case fieldNeutral == "":
					t.Errorf("%s.%s is unexported, so its hash coverage cannot be checked: export it or list it in hashNeutral", path, f.Name)
				}
			}
			return
		case reflect.Array:
			if v.Len() > 0 {
				walk(path+"[0]", v.Index(0), neutral)
			}
			return
		}
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		if !perturb(v) {
			if neutral == "" {
				t.Errorf("%s (%s) cannot be perturbed: hash it through a perturbable field or list it in hashNeutral", path, v.Type())
			}
			return
		}
		changed := hash() != want
		v.Set(old)
		switch {
		case neutral == "" && !changed:
			t.Errorf("changing %s leaves Hash unchanged: hash it, or list it in hashNeutral with the reason a restart may change it", path)
		case neutral != "" && changed:
			t.Errorf("%s is hash-neutral (%s) but changes Hash", path, neutral)
		}
		if v.Kind() == reflect.Pointer && !v.IsNil() {
			walk(path, v.Elem(), neutral)
		}
	}
	walk(cfg.Type().String(), cfg, "")
}

// perturb changes v to a different value of its type, reporting false for
// kinds it cannot perturb (func, chan, map, interface).
func perturb(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		if v.Float() == 0 {
			v.SetFloat(1)
		} else {
			v.SetFloat(1.5 * v.Float())
		}
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		} else {
			v.Set(reflect.Zero(v.Type()))
		}
	default:
		return false
	}
	return true
}
