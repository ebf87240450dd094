// Package cliutil holds the small pieces shared by the command-line front
// ends (mdsim, kmcsim, mdkmc): the shared run flags, and the
// signal-to-preemption bridge that gives every CLI the same
// graceful-interrupt contract as the job server.
package cliutil

import (
	"log"
	"os"
	"os/signal"
	"syscall"

	"mdkmc/internal/couple"
)

// preemptOnSignal returns a Preemptor armed by SIGINT/SIGTERM. The first
// signal requests preemption — the run commits a checkpoint at its next
// step/cycle boundary (when a -checkpoint-dir is configured) and returns
// ErrPreempted so main can print the resume hint and exit cleanly. A second
// signal aborts the process immediately.
func preemptOnSignal(name string) *couple.Preemptor {
	p := &couple.Preemptor{}
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("%s: interrupt — checkpointing at the next boundary (interrupt again to exit now)", name)
		p.Request()
		<-sig
		log.Fatalf("%s: second interrupt, exiting immediately", name)
	}()
	return p
}
