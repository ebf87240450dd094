// Package md is a fixture standing in for the real deterministic package:
// rngtime protects it by import path.
package md

import (
	"math/rand"
	"time"
)

func clockReads() time.Duration {
	t := time.Now()        // want "time.Now in deterministic package .*: wall-clock reads go through telemetry.Span, the one sanctioned clock"
	d := time.Since(t)     // want "time.Since in deterministic package"
	d += time.Until(t)     // want "time.Until in deterministic package"
	return d
}

func globalRand() float64 {
	return rand.Float64() // want "in deterministic package"
}

// durationsOK is fine: duration arithmetic and constants read no clock.
func durationsOK(d time.Duration) time.Duration {
	return d + 3*time.Millisecond
}

func suppressed() {
	//mdvet:ignore rngtime harness-only progress log, never feeds simulation state
	_ = time.Now()
}
