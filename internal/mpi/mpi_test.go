package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mdkmc/internal/telemetry"
)

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []byte("hello"))
		} else {
			if data := c.Recv(0, 7); string(data) != "hello" {
				t.Errorf("recv %q", data)
			}
		}
	})
}

func TestSendCopiesPayload(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := []byte{1, 2, 3}
			c.Send(1, 0, buf)
			buf[0] = 99 // must not affect the delivered message
		} else {
			data := c.Recv(0, 0)
			if data[0] != 1 {
				t.Errorf("payload aliased sender buffer: %v", data)
			}
		}
	})
}

func TestFIFOPerSourceAndTag(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 10; i++ {
				c.Send(1, 3, []byte{byte(i)})
			}
		} else {
			for i := 0; i < 10; i++ {
				data := c.Recv(0, 3)
				if int(data[0]) != i {
					t.Errorf("out of order: got %d at position %d", data[0], i)
				}
			}
		}
	})
}

func TestTagSelectivity(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("first-tag1"))
			c.Send(1, 2, []byte("first-tag2"))
		} else {
			// Receive tag 2 before tag 1: matching must skip the tag-1
			// message.
			d2 := c.Recv(0, 2)
			d1 := c.Recv(0, 1)
			if string(d2) != "first-tag2" || string(d1) != "first-tag1" {
				t.Errorf("tag matching broken: %q %q", d1, d2)
			}
		}
	})
}

func TestBarrierOrdering(t *testing.T) {
	const n = 8
	w := NewWorld(n)
	var before, after int64
	w.Run(func(c *Comm) {
		atomic.AddInt64(&before, 1)
		c.Barrier()
		if atomic.LoadInt64(&before) != n {
			t.Errorf("rank %d passed barrier before all arrived", c.Rank())
		}
		atomic.AddInt64(&after, 1)
		c.Barrier()
		if atomic.LoadInt64(&after) != n {
			t.Errorf("rank %d: second barrier leaked", c.Rank())
		}
	})
}

func TestBarrierReusable(t *testing.T) {
	const n = 4
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		for i := 0; i < 50; i++ {
			c.Barrier()
		}
	})
}

func TestAllreduce(t *testing.T) {
	const n = 6
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		r := float64(c.Rank())
		sum := c.Allreduce(Sum, r, 1)
		if sum[0] != float64(n*(n-1)/2) || sum[1] != n {
			t.Errorf("sum = %v", sum)
		}
		mx := c.Allreduce(Max, r)
		if mx[0] != n-1 {
			t.Errorf("max = %v", mx)
		}
	})
}

func TestAllreduceRepeated(t *testing.T) {
	const n = 3
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		for i := 0; i < 20; i++ {
			got := c.Allreduce(Sum, 1)
			if got[0] != n {
				t.Errorf("iteration %d: sum %v", i, got)
			}
		}
	})
}

func TestAllgather(t *testing.T) {
	const n = 5
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		payload := []byte(fmt.Sprintf("rank-%d", c.Rank()))
		all := c.Allgather(payload)
		if len(all) != n {
			t.Fatalf("gathered %d entries", len(all))
		}
		for r, d := range all {
			want := fmt.Sprintf("rank-%d", r)
			if string(d) != want {
				t.Errorf("slot %d = %q, want %q", r, d, want)
			}
		}
	})
}

// TestAllgatherBackToBack regression-tests a generation race: a waiter woken
// from one Allgather must still see *that* gather's result even if a fast
// peer has already entered the next Allgather and reset the shared input
// buffer. Payloads encode (rank, round) so any cross-generation bleed shows
// up as a wrong round byte. Rank-dependent busy-work between rounds widens
// the wake-to-read window that triggered the original corruption.
func TestAllgatherBackToBack(t *testing.T) {
	const n = 4
	const rounds = 300
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		for round := 0; round < rounds; round++ {
			all := c.Allgather([]byte{byte(c.Rank()), byte(round)})
			if len(all) != n {
				t.Fatalf("round %d: gathered %d entries", round, len(all))
			}
			for r, d := range all {
				if len(d) != 2 || d[0] != byte(r) || d[1] != byte(round) {
					t.Fatalf("rank %d round %d slot %d = %v, want [%d %d]",
						c.Rank(), round, r, d, r, round)
				}
			}
			// Stagger the ranks so some are still reading the result while
			// others race ahead into the next collective.
			if c.Rank()%2 == 0 {
				runtime.Gosched()
			}
		}
	})
}

func TestStatsCounting(t *testing.T) {
	w := NewWorld(2)
	var sent, recvd Stats
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]byte, 100))
			c.Send(1, 0, make([]byte, 50))
			sent = c.Stats()
		} else {
			c.Recv(0, 0)
			c.Recv(0, 0)
			recvd = c.Stats()
		}
	})
	if sent.MsgsSent != 2 || sent.BytesSent != 150 {
		t.Errorf("sender stats %+v", sent)
	}
	if recvd.MsgsRecv != 2 || recvd.BytesRecv != 150 {
		t.Errorf("receiver stats %+v", recvd)
	}
	var total Stats
	total.Add(sent)
	total.Add(recvd)
	if total.BytesSent != 150 || total.BytesRecv != 150 {
		t.Errorf("aggregate stats %+v", total)
	}
}

func TestWindowPutFence(t *testing.T) {
	const n = 4
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		win := NewWin(c)
		// Every rank puts its rank byte at rank 0.
		if c.Rank() != 0 {
			win.Put(0, []byte{byte(c.Rank())})
		}
		got := win.Fence()
		if c.Rank() == 0 {
			if len(got) != n-1 {
				t.Fatalf("rank 0 received %d puts", len(got))
			}
			for i, m := range got {
				if m.Source != i+1 || m.Data[0] != byte(i+1) {
					t.Errorf("put %d: %+v (must be sorted by source)", i, m)
				}
			}
		} else if len(got) != 0 {
			t.Errorf("rank %d received %d puts", c.Rank(), len(got))
		}
		// Second epoch: nothing pending.
		if got := win.Fence(); len(got) != 0 {
			t.Errorf("stale puts leaked into next epoch: %d", len(got))
		}
	})
}

func TestWindowEpochIsolation(t *testing.T) {
	const n = 2
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		win := NewWin(c)
		for epoch := 0; epoch < 5; epoch++ {
			if c.Rank() == 0 {
				win.Put(1, []byte{byte(epoch)})
			}
			got := win.Fence()
			if c.Rank() == 1 {
				if len(got) != 1 || got[0].Data[0] != byte(epoch) {
					t.Errorf("epoch %d: got %+v", epoch, got)
				}
			}
		}
	})
}

func TestWindowNoZeroSizeMessages(t *testing.T) {
	// The one-sided path must not require idle neighbors to send anything:
	// a rank that puts nothing contributes zero messages.
	const n = 3
	w := NewWorld(n)
	stats := make([]Stats, n)
	w.Run(func(c *Comm) {
		win := NewWin(c)
		if c.Rank() == 1 {
			win.Put(0, []byte{42})
		}
		win.Fence()
		stats[c.Rank()] = c.Stats()
	})
	if stats[2].MsgsSent != 0 {
		t.Errorf("idle rank sent %d messages", stats[2].MsgsSent)
	}
	if stats[1].MsgsSent != 1 {
		t.Errorf("active rank sent %d messages", stats[1].MsgsSent)
	}
}

func TestWorldValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("NewWorld(0) did not panic")
		}
	}()
	NewWorld(0)
}

func TestSendInvalidRankPanics(t *testing.T) {
	w := NewWorld(1)
	defer func() {
		if recover() == nil {
			t.Errorf("send to invalid rank did not panic")
		}
	}()
	w.Run(func(c *Comm) {
		c.Send(5, 0, nil)
	})
}

// TestSendNegativeTagPanics: negative tags are the window's, so Send must
// refuse them rather than slip a message into the next Fence.
func TestSendNegativeTagPanics(t *testing.T) {
	w := NewWorld(2)
	p := runWithTimeout(t, w, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, -1, []byte{1})
		}
	})
	if p == nil || !strings.Contains(fmt.Sprint(p), "negative tag") {
		t.Fatalf("Send with tag -1: recovered %v, want a negative-tag panic", p)
	}
}

// TestWindowAndSendShareMailbox: puts and two-sided messages travel through
// the same mailbox, so in one epoch a rank that both sends and puts to a
// peer must see the put only in Fence and the message only in Recv, in
// either order, and each path counts only its own traffic.
func TestWindowAndSendShareMailbox(t *testing.T) {
	for _, recvFirst := range []bool{false, true} {
		w := NewWorld(2)
		comms := make([]*Comm, 2)
		w.Run(func(c *Comm) {
			comms[c.Rank()] = c
			win := NewWin(c)
			var msg []byte
			if c.Rank() == 0 {
				c.Send(1, 7, []byte("message"))
				win.Put(1, []byte("put"))
			} else if recvFirst {
				msg = c.Recv(0, 7)
			}
			puts := win.Fence()
			if c.Rank() == 0 {
				return
			}
			if !recvFirst {
				msg = c.Recv(0, 7)
			}
			if string(msg) != "message" {
				t.Errorf("recvFirst=%v: Recv got %q", recvFirst, msg)
			}
			if len(puts) != 1 || puts[0].Source != 0 || string(puts[0].Data) != "put" {
				t.Errorf("recvFirst=%v: Fence got %+v", recvFirst, puts)
			}
		})
		for path, got := range map[string][2]Stats{
			"p2p": {comms[0].p2p.snapshot(), comms[1].p2p.snapshot()},
			"win": {comms[0].win.snapshot(), comms[1].win.snapshot()},
		} {
			size := int64(len("message"))
			if path == "win" {
				size = int64(len("put"))
			}
			if want := (Stats{MsgsSent: 1, BytesSent: size}); got[0] != want {
				t.Errorf("recvFirst=%v: rank 0 %s counters %+v, want %+v", recvFirst, path, got[0], want)
			}
			if want := (Stats{MsgsRecv: 1, BytesRecv: size}); got[1] != want {
				t.Errorf("recvFirst=%v: rank 1 %s counters %+v, want %+v", recvFirst, path, got[1], want)
			}
		}
	}
}

func TestManyRanksPipeline(t *testing.T) {
	// Ring pipeline: each rank sends to the right, receives from the left,
	// accumulating; validates no deadlock and correct routing at scale.
	const n = 32
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		right := (c.Rank() + 1) % n
		left := (c.Rank() + n - 1) % n
		val := byte(c.Rank())
		for step := 0; step < n; step++ {
			c.Send(right, step, []byte{val})
			data := c.Recv(left, step)
			val = data[0]
		}
		if int(val) != c.Rank() { // value returns to origin after n hops
			t.Errorf("rank %d ended with %d", c.Rank(), val)
		}
	})
}

// runWithTimeout runs w.Run(fn) in a goroutine and returns the recovered
// panic value (nil if Run returned normally), failing the test if Run does
// not finish within the deadline — the rank-panic deadlock regression.
func runWithTimeout(t *testing.T, w *World, fn func(c *Comm)) interface{} {
	t.Helper()
	done := make(chan interface{}, 1)
	go func() {
		defer func() { done <- recover() }()
		w.Run(fn)
	}()
	select {
	case p := <-done:
		return p
	case <-time.After(30 * time.Second):
		t.Fatal("World.Run did not return after a rank panic (deadlock)")
		return nil
	}
}

func TestRankPanicWakesBlockedRecv(t *testing.T) {
	w := NewWorld(3)
	p := runWithTimeout(t, w, func(c *Comm) {
		switch c.Rank() {
		case 0:
			panic("boom")
		default:
			c.Recv(0, 42) // nothing is ever sent with this tag
		}
	})
	if p == nil {
		t.Fatal("Run returned without re-raising the rank panic")
	}
	if !strings.Contains(fmt.Sprint(p), "boom") {
		t.Errorf("re-raised panic %v does not carry the original value", p)
	}
}

func TestRankPanicWakesBlockedCollectives(t *testing.T) {
	// One subtest per collective. All surviving peers sit in the SAME
	// collective (mixing different collectives in one round is invalid MPI
	// usage), except one rank parked in Recv to cover the spec's "peers in
	// Recv and in Allreduce" scenario in a single world.
	collectives := map[string]func(c *Comm){
		"allreduce": func(c *Comm) { c.Allreduce(Sum, 1, 2) },
		"barrier":   func(c *Comm) { c.Barrier() },
		"allgather": func(c *Comm) { c.Allgather([]byte{byte(c.Rank())}) },
	}
	for name, coll := range collectives {
		coll := coll
		t.Run(name, func(t *testing.T) {
			w := NewWorld(4)
			p := runWithTimeout(t, w, func(c *Comm) {
				switch c.Rank() {
				case 0:
					panic("collective-boom")
				case 1:
					c.Recv(0, 42) // nothing is ever sent with this tag
				default:
					coll(c)
				}
			})
			if p == nil {
				t.Fatal("Run returned without re-raising the rank panic")
			}
			rp, ok := p.(RankPanic)
			if !ok {
				t.Fatalf("re-raised value %T, want RankPanic", p)
			}
			if rp.Rank != 0 || fmt.Sprint(rp.Value) != "collective-boom" {
				t.Errorf("RankPanic %+v, want rank 0 / collective-boom", rp)
			}
		})
	}
}

// TestCollectivePanicReleasesLock pins the regression where a panic raised
// inside a collective while holding the shared lock (here: an allreduce
// length mismatch) left the lock held forever, so the panicking rank's own
// abort — and every woken peer — deadlocked on it.
func TestCollectivePanicReleasesLock(t *testing.T) {
	w := NewWorld(3)
	p := runWithTimeout(t, w, func(c *Comm) {
		if c.Rank() == 0 {
			//mdvet:ignore collsym deliberate mismatch: this test pins the panic-under-lock regression
			c.Allreduce(Sum, 1, 2, 3)
			//mdvet:ignore collsym deliberate mismatch: the mismatched rank exits early by design
			return
		}
		c.Allreduce(Sum, 1) // length mismatch: panics under the lock
	})
	if p == nil {
		t.Fatal("Run returned without re-raising the mismatch panic")
	}
	if !strings.Contains(fmt.Sprint(p), "length mismatch") {
		t.Errorf("re-raised panic %v, want the allreduce mismatch", p)
	}
}

func TestRankPanicUnwrapsError(t *testing.T) {
	w := NewWorld(2)
	sentinel := errors.New("construction failed")
	p := runWithTimeout(t, w, func(c *Comm) {
		if c.Rank() == 0 {
			panic(sentinel)
		}
		c.Barrier()
	})
	rp, ok := p.(RankPanic)
	if !ok {
		t.Fatalf("re-raised value %T, want RankPanic", p)
	}
	if !errors.Is(rp, sentinel) {
		t.Errorf("RankPanic does not unwrap to the original error: %v", rp)
	}
}

func BenchmarkSendRecv(b *testing.B) {
	w := NewWorld(2)
	payload := bytes.Repeat([]byte{1}, 1024)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < b.N; i++ {
				c.Send(1, 0, payload)
			}
		} else {
			for i := 0; i < b.N; i++ {
				c.Recv(0, 0)
			}
		}
	})
}

func BenchmarkBarrier(b *testing.B) {
	w := NewWorld(8)
	w.Run(func(c *Comm) {
		for i := 0; i < b.N; i++ {
			c.Barrier()
		}
	})
}

// TestStatsSymmetry drives every communication path — point-to-point,
// Allreduce, Allgather, and one-sided Put/Fence — and asserts that the
// world-global sent counters equal the world-global recv counters, both in
// messages and bytes. Collectives used to count only the send side.
func TestStatsSymmetry(t *testing.T) {
	const n = 4
	w := NewWorld(n)
	stats := make([]Stats, n)
	w.Run(func(c *Comm) {
		// Point-to-point ring: each rank sends one variably-sized message.
		next := (c.Rank() + 1) % n
		c.Send(next, 7, make([]byte, 10*(c.Rank()+1)))
		c.Recv((c.Rank()+n-1)%n, 7)

		c.Allreduce(Sum, 1, 2, 3)
		c.Allgather(bytes.Repeat([]byte{byte(c.Rank())}, 5*(c.Rank()+1)))

		win := NewWin(c)
		if c.Rank()%2 == 0 {
			win.Put((c.Rank()+1)%n, make([]byte, 64))
		}
		win.Fence()

		stats[c.Rank()] = c.Stats()
	})
	var total Stats
	for r, s := range stats {
		if s.MsgsSent == 0 || s.MsgsRecv == 0 {
			t.Errorf("rank %d saw no traffic in some direction: %+v", r, s)
		}
		total.Add(s)
	}
	if total.MsgsSent != total.MsgsRecv {
		t.Errorf("global MsgsSent %d != MsgsRecv %d", total.MsgsSent, total.MsgsRecv)
	}
	if total.BytesSent != total.BytesRecv {
		t.Errorf("global BytesSent %d != BytesRecv %d", total.BytesSent, total.BytesRecv)
	}
}

// TestAttachTelemetry checks the per-path counter funcs read the live
// atomics and that totals match the Stats snapshot.
func TestAttachTelemetry(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		reg := telemetry.New(c.Rank())
		c.AttachTelemetry(reg)
		if c.Rank() == 0 {
			c.Send(1, 0, make([]byte, 100))
		} else {
			c.Recv(0, 0)
		}
		c.Allreduce(Sum, 1)
		c.Barrier()
		snap := reg.Snapshot()
		vals := make(map[string]int64)
		for _, m := range snap.Metrics {
			vals[m.Name] = m.Value
		}
		if c.Rank() == 0 && vals["mpi/p2p/bytes-sent"] != 100 {
			t.Errorf("rank 0 p2p bytes-sent = %d, want 100", vals["mpi/p2p/bytes-sent"])
		}
		if c.Rank() == 1 && vals["mpi/p2p/bytes-recv"] != 100 {
			t.Errorf("rank 1 p2p bytes-recv = %d, want 100", vals["mpi/p2p/bytes-recv"])
		}
		if vals["mpi/coll/bytes-sent"] != 8 || vals["mpi/coll/bytes-recv"] != 8 {
			t.Errorf("coll bytes = %d/%d, want 8/8", vals["mpi/coll/bytes-sent"], vals["mpi/coll/bytes-recv"])
		}
		st := c.Stats()
		if vals["mpi/bytes-sent"] != st.BytesSent || vals["mpi/bytes-recv"] != st.BytesRecv {
			t.Errorf("totals %d/%d do not match Stats %+v", vals["mpi/bytes-sent"], vals["mpi/bytes-recv"], st)
		}
	})
}
