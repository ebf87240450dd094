package eam

import (
	"slices"
	"sync"

	"mdkmc/internal/units"
)

// sharedBound is the number of potentials Shared keeps. A process runs one
// or two parametrizations at a time (the MD and the KMC table resolution,
// Fe or Fe-Cu), and a job server admits any table resolution a client asks
// for, so the cache is a fixed array, not a map that grows with its input.
const sharedBound = 4

// shared is the process-wide potential cache: the most recently used
// first, nil past the last entry. The lock is held across a build, so the
// ranks of a world asking for one key at once build it once.
var shared struct {
	mu   sync.Mutex
	pots [sharedBound]*Potential
}

// Shared returns the potential over the given species, evaluation mode and
// table resolution, building it on first use and keeping the sharedBound
// most recently used. A Potential is immutable once built — its tables are
// unexported and only build writes them — so every rank, engine and job of
// a process may read the one instance concurrently. The result is bitwise
// the potential NewFe (elems Fe) or NewFeCu (elems Fe, Cu) builds; those
// stay the uncached builders.
func Shared(mode Mode, points int, elems ...units.Element) *Potential {
	shared.mu.Lock()
	defer shared.mu.Unlock()
	c := &shared.pots
	at := len(c) - 1 // a miss drops the least recently used entry
	var p *Potential
	for i, q := range c {
		if q != nil && q.Mode == mode && q.points == points && slices.Equal(q.Elements, elems) {
			at, p = i, q
			break
		}
	}
	if p == nil {
		p = build(mode, points, slices.Clone(elems))
	}
	copy(c[1:at+1], c[:at])
	c[0] = p
	return p
}
