package netfabric

import "testing"

// droppingSender returns rank 0 of a pair that drops every datagram it
// sends, so nothing reaches rank 1, no ack comes back, and rank 0's send
// window moves only when the test calls onAck. Sends never flush inline
// (TxBatch above the window), and the stall detector stays quiet. Every
// ring slot ends up holding an encode buffer: the window is filled once
// and retired.
func droppingSender(t *testing.T) (*Provider, *flow) {
	t.Helper()
	a, _ := pair(t, Config{Fault: Fault{Loss: 1}, TxBatch: 1 << 16, StallRTOs: 1 << 20})
	fl := a.flows[1]
	retireAll := func() {
		a.flushPending()
		fl.mu.Lock()
		cum, credit := fl.nextSeq, fl.creditLimit
		fl.mu.Unlock()
		a.onAck(fl, cum, credit)
	}
	t.Cleanup(retireAll) // runs before pair's Close, which would wait to drain
	fill(t, a, fl, int(a.window))
	retireAll()
	return a, fl
}

// fill sends n one-datagram messages to rank 1, raising the credit limit
// first so only the window can refuse them.
func fill(t *testing.T, a *Provider, fl *flow, n int) {
	t.Helper()
	grant(a, fl, n)
	for i := 0; i < n; i++ {
		if err := a.Send(1, 7, 0, nil); err != nil {
			t.Fatalf("send %d of %d: %v", i, n, err)
		}
	}
}

// grant raises fl's credit limit by n messages, as a peer's ack would.
func grant(a *Provider, fl *flow, n int) {
	fl.mu.Lock()
	base, credit := fl.baseSeq, fl.creditLimit+uint64(n)
	fl.mu.Unlock()
	a.onAck(fl, base, credit)
}

// TestSendAllocFree: once a flow's ring has grown to the window and every
// slot holds an encode buffer, Send allocates nothing per datagram. The
// unacked ring stores packets by value and reuses the slot's buffer.
func TestSendAllocFree(t *testing.T) {
	a, fl := droppingSender(t)
	const runs = 100
	grant(a, fl, runs+1) // AllocsPerRun adds one warm-up call
	payload := make([]byte, 64)
	if allocs := testing.AllocsPerRun(runs, func() {
		if err := a.Send(1, 7, 0, payload); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Send allocated %.2f objects per datagram, want 0", allocs)
	}
}

// TestOnAckAllocFree: retiring an acknowledged packet allocates nothing;
// its encode buffer stays in its ring slot instead of going to a pool that
// would box the slice header.
func TestOnAckAllocFree(t *testing.T) {
	a, fl := droppingSender(t)
	const runs = 100
	fill(t, a, fl, runs+1)
	a.flushPending()
	fl.mu.Lock()
	cum, credit := fl.baseSeq, fl.creditLimit
	fl.mu.Unlock()
	if allocs := testing.AllocsPerRun(runs, func() {
		cum++
		a.onAck(fl, cum, credit)
	}); allocs != 0 {
		t.Fatalf("onAck allocated %.2f objects per retired datagram, want 0", allocs)
	}
	if got := fl.unacked.len(); got != 0 {
		t.Fatalf("%d packets left unacked, want 0", got)
	}
}
