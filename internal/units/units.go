// Package units defines the physical constants and the "metal" unit system
// used throughout the simulation.
//
// The unit system follows the common molecular-dynamics "metal" convention
// (as used by LAMMPS and CoMD for EAM potentials):
//
//	distance    angstrom (Å)
//	time        picosecond (ps)
//	energy      electron-volt (eV)
//	mass        eV·ps²/Å²  (so that F = m·a holds without conversion factors)
//	temperature kelvin (K)
//
// Masses given in atomic mass units (amu, g/mol) must be converted with
// MassAMU before use in the integrator.
package units

import "math"

// Physical constants in metal units.
const (
	// Boltzmann is the Boltzmann constant kB in eV/K.
	Boltzmann = 8.617333262e-5

	// AMUToMetal converts a mass in atomic mass units (g/mol) to metal
	// units (eV·ps²/Å²): 1 amu = 1.0364269e-4 eV·ps²/Å².
	AMUToMetal = 1.0364269e-4
)

// Element identifies an atomic species in the simulation. The damage
// simulation of the paper is pure iron; the alloy path (Section 2.1.2 of the
// paper) adds copper.
type Element uint8

// Species supported by the potential tables.
const (
	Fe Element = iota // iron, the paper's primary material
	Cu                // copper, exercises the alloy multi-table path
	numElements
)

// NumElements is the number of supported species.
const NumElements = int(numElements)

// String returns the chemical symbol.
func (e Element) String() string {
	switch e {
	case Fe:
		return "Fe"
	case Cu:
		return "Cu"
	}
	return "?"
}

// MassAMU returns the atomic mass of e in amu.
func (e Element) MassAMU() float64 {
	switch e {
	case Fe:
		return 55.845
	case Cu:
		return 63.546
	}
	return 0
}

// Mass returns the atomic mass of e in metal units (eV·ps²/Å²).
func (e Element) Mass() float64 { return e.MassAMU() * AMUToMetal }

// LatticeConstantFe is the BCC iron lattice constant in Å used by the paper
// ("The lattice constant is set to 2.855").
const LatticeConstantFe = 2.855

// VacancyFormationEnergyFe is the vacancy formation energy E+v of BCC iron
// in eV, used by the temporal-scale formula C_real = exp(-E+v/(kB*T)).
// The paper's headline run (T = 600 K, C_MC = 2e-6, t_threshold = 2e-4)
// yields t_real = 19.2 days with this value (within the experimental
// 1.6-2.0 eV range for iron).
const VacancyFormationEnergyFe = 1.8596

// VacancyMigrationEnergyFe is the reference migration barrier E_m of a
// vacancy hop in BCC iron (eV); the kinetically-resolved barrier of a
// specific hop adds half the energy difference of the swap.
const VacancyMigrationEnergyFe = 0.65

// AttemptFrequency is the pre-exponential factor ν of the transition rate
// k = ν exp(-ΔE/kBT), in 1/s.
const AttemptFrequency = 1e13

// DisplacementThresholdFe is the threshold displacement energy E_d of BCC
// iron in eV (the ASTM E521 standard value), used by the NRT-dpa dose model
// of the cascade campaign driver: ν(E) = 0.8·E/(2·E_d) displacements per
// recoil of damage energy E.
const DisplacementThresholdFe = 40.0

// KineticTemperature returns the instantaneous temperature of a system with
// the given total kinetic energy (eV) and number of atoms, via
// T = 2*KE / (3*N*kB).
func KineticTemperature(kinetic float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return 2 * kinetic / (3 * float64(n) * Boltzmann)
}

// ThermalSigma returns the standard deviation of each velocity component
// (Å/ps) of the Maxwell-Boltzmann distribution at temperature T for an atom
// of the given mass (metal units): sigma = sqrt(kB*T/m).
func ThermalSigma(temperature, mass float64) float64 {
	if mass <= 0 {
		return 0
	}
	return math.Sqrt(Boltzmann * temperature / mass)
}
