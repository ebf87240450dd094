package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestElementString(t *testing.T) {
	if Fe.String() != "Fe" {
		t.Errorf("Fe.String() = %q", Fe.String())
	}
	if Cu.String() != "Cu" {
		t.Errorf("Cu.String() = %q", Cu.String())
	}
	if Element(200).String() != "?" {
		t.Errorf("unknown element should stringify to ?")
	}
}

func TestMasses(t *testing.T) {
	if got := Fe.MassAMU(); math.Abs(got-55.845) > 1e-9 {
		t.Errorf("Fe mass = %v amu", got)
	}
	if got := Cu.MassAMU(); math.Abs(got-63.546) > 1e-9 {
		t.Errorf("Cu mass = %v amu", got)
	}
	if Element(200).MassAMU() != 0 {
		t.Errorf("unknown element should have zero mass")
	}
	// Metal-unit mass of Fe: 55.845 * 1.0364269e-4.
	want := 55.845 * AMUToMetal
	if got := Fe.Mass(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Fe.Mass() = %v, want %v", got, want)
	}
}

func TestKineticTemperatureRoundTrip(t *testing.T) {
	// For N atoms at temperature T, KE = 3/2 N kB T.
	const T = 600.0
	const n = 1000
	ke := 1.5 * float64(n) * Boltzmann * T
	if got := KineticTemperature(ke, n); math.Abs(got-T) > 1e-9 {
		t.Errorf("KineticTemperature = %v, want %v", got, T)
	}
	if KineticTemperature(1.0, 0) != 0 {
		t.Errorf("zero atoms should give zero temperature")
	}
}

func TestThermalSigma(t *testing.T) {
	m := Fe.Mass()
	sigma := ThermalSigma(600, m)
	// sigma^2 * m should equal kB*T.
	if got := sigma * sigma * m; math.Abs(got-Boltzmann*600) > 1e-12 {
		t.Errorf("sigma^2*m = %v, want %v", got, Boltzmann*600)
	}
	if ThermalSigma(600, 0) != 0 {
		t.Errorf("zero mass should give zero sigma")
	}
}

func TestThermalSigmaProperty(t *testing.T) {
	f := func(tK, mRaw uint16) bool {
		temp := float64(tK%2000) + 1
		mass := (float64(mRaw%1000) + 1) * AMUToMetal
		s := ThermalSigma(temp, mass)
		return math.Abs(s*s*mass-Boltzmann*temp) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
