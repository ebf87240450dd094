// Package a exercises preemptpoll outside the coupling packages: the rule
// does not apply (loops may advance without polling — there is no
// preemptor to honor).
package a

import "mdkmc/internal/md"

// freeLoop advances without a boundary: fine here, this is not a
// coupling package.
func freeLoop(r *md.Rank, n int) {
	for i := 0; i < n; i++ {
		r.Step()
	}
}
