// Command mdserve runs the simulation-as-a-service job server (DESIGN.md
// §16): an HTTP API that queues MD/KMC/coupled/campaign jobs from multiple
// tenants onto a shared pool of in-process rank slots, preempting
// low-priority work at checkpoint boundaries when high-priority work
// arrives. SIGINT/SIGTERM drains gracefully — every running job checkpoints
// and stops, the queue is persisted, and a restart on the same -dir picks
// the work back up.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mdkmc/internal/serve"
)

// wallClock is the real clock, injected here so internal/serve itself stays
// deterministic (and passes `make determinism`).
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	dir := flag.String("dir", "mdserve-state", "state directory: job ledger, checkpoints, artifacts")
	slots := flag.Int("slots", 2, "shared rank-slot pool size")
	queueDepth := flag.Int("queue-depth", 64, "waiting jobs accepted before 429 backpressure")
	tenantMax := flag.Int("tenant-max", 8, "active (non-terminal) jobs allowed per tenant")
	flag.Parse()

	s, err := serve.New(serve.Config{
		Dir:             *dir,
		Slots:           *slots,
		QueueDepth:      *queueDepth,
		TenantMaxActive: *tenantMax,
		Clock:           wallClock{},
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// The bound address goes to stdout first thing so scripts starting the
	// server with port 0 can discover the port.
	fmt.Printf("mdserve listening on %s (state in %s, %d slots)\n", ln.Addr(), *dir, *slots)

	hs := &http.Server{Handler: s.Handler()}
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("mdserve: draining — checkpointing running jobs, persisting the queue (again to exit now)")
	go func() {
		<-sig
		log.Fatal("mdserve: second signal, exiting without drain")
	}()
	s.Drain()
	if err := hs.Shutdown(context.Background()); err != nil {
		log.Print(err)
	}
	fmt.Println("mdserve: drained; restart on the same -dir to resume")
}
