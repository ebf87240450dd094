package mpi

import "sort"

// winTag is the reserved tag a put travels under in the target's mailbox.
// Send rejects negative tags and Recv matches tags exactly, so the two kinds
// of traffic share the mailbox without mixing.
const winTag = -1

// Win is a one-sided communication window. A rank Put()s byte payloads at
// its neighbors without any receive call on the target, and a collective
// Fence() closes the epoch: after the fence every rank observes exactly the
// payloads put at it during the epoch. This is the paper's preferred
// realization of the on-demand KMC exchange ("only one side is involved in
// the communication, to eliminate these zero-size messages").
type Win struct {
	comm *Comm
}

// PutMsg is one delivered one-sided payload.
type PutMsg struct {
	Source int
	Data   []byte
}

// NewWin opens c's window. Every rank that puts or fences must open one.
func NewWin(c *Comm) *Win { return &Win{comm: c} }

// Put sends data into rank to's window for delivery at the next fence. It
// never blocks and involves no action by the target until the fence.
func (w *Win) Put(to int, data []byte) {
	w.comm.deliver(to, winTag, data)
	w.comm.win.sent(1, int64(len(data)))
}

// Fence closes the current access epoch and returns the payloads put at this
// rank during it, sorted by source rank (and arrival order within a source)
// so that processing is deterministic. It is collective.
func (w *Win) Fence() []PutMsg {
	c := w.comm
	// First barrier: all puts of the epoch are in their target's mailbox.
	c.Barrier()
	var out []PutMsg
	box := c.world.boxes[c.rank]
	box.mu.Lock()
	kept := box.pending[:0]
	for _, m := range box.pending {
		if m.tag == winTag {
			out = append(out, PutMsg{Source: m.src, Data: m.data})
		} else {
			kept = append(kept, m)
		}
	}
	clear(box.pending[len(kept):])
	box.pending = kept
	box.mu.Unlock()
	// Second barrier: every rank has drained its puts, so later puts land
	// in the next epoch.
	c.Barrier()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	for _, m := range out {
		c.win.recv(1, int64(len(m.Data)))
	}
	return out
}
