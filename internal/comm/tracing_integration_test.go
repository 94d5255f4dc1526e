package comm

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	lci "lcigraph/internal/core"
	"lcigraph/internal/netfabric"
	"lcigraph/internal/tracing"
)

// TestTracingLossyUDPPairsMsgIDs runs 2-rank Exchange rounds over real loopback
// UDP with injected loss and checks the cross-rank correlation contract:
// every message a rank received carries a msgid that the peer's SEND-ENQ
// recorded, exactly once — retransmissions and duplicated datagrams must
// never mint a second RECV-DEQ event. The per-rank rings then merge into
// one Chrome trace that must decode cleanly with monotone per-lane
// timestamps and at least one send→recv flow-arrow pair.
func TestTracingLossyUDPPairsMsgIDs(t *testing.T) {
	const p = 2
	const msgs = 40
	provs, err := netfabric.NewLoopbackGroup(p, netfabric.Config{
		Fault: netfabric.Fault{Loss: 0.05, Dup: 0.02, Reorder: 0.02, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	trs := make([]*tracing.Tracer, p)
	layers := make([]*LCILayer, p)
	for r := 0; r < p; r++ {
		trs[r] = tracing.New(r, 4096)
		layers[r] = NewLCILayer(provs[r], lci.Options{Tracer: trs[r]})
	}

	payload := func(r, i int) []byte {
		b := make([]byte, 48)
		for j := range b {
			b[j] = byte(r*131 + i*7 + j)
		}
		return b
	}

	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			l := layers[r]
			peer := 1 - r
			// One message to the peer per round, each its own SEND-ENQ
			// (and msgid).
			out := make([][]byte, p)
			expect := make([]bool, p)
			expect[peer] = true
			for i := 0; i < msgs; i++ {
				out[peer] = l.AllocBuf(48)
				copy(out[peer], payload(r, i))
				l.Exchange(77, out, expect, nil, func(pr int, data []byte) {
					if pr != peer || !bytes.Equal(data, payload(peer, i)) {
						t.Errorf("rank %d: message %d corrupt or misordered from %d", r, i, pr)
					}
				})
			}
		}(r)
	}
	wg.Wait()
	for r := 0; r < p; r++ {
		layers[r].Stop()
	}
	for r := 0; r < p; r++ {
		provs[r].Close()
	}

	// Pair SEND-ENQ ↔ RECV-DEQ by global msgid across the two rings.
	for r := 0; r < p; r++ {
		peer := 1 - r
		sent := map[uint64]int{}
		for _, ev := range trs[r].Events() {
			if ev.Type == tracing.EvSendEnq && ev.MsgID != 0 {
				sent[ev.MsgID]++
			}
		}
		recvd := map[uint64]int{}
		for _, ev := range trs[peer].Events() {
			if ev.Type == tracing.EvRecvDeq && tracing.MsgIDRank(ev.MsgID) == r {
				recvd[ev.MsgID]++
			}
		}
		if len(sent) != msgs {
			t.Fatalf("rank %d recorded %d send-enq msgids, want %d", r, len(sent), msgs)
		}
		for id, n := range sent {
			if n != 1 {
				t.Errorf("rank %d: msgid %#x enqueued %d times", r, id, n)
			}
			if recvd[id] != 1 {
				t.Errorf("msgid %#x from rank %d dequeued %d times on rank %d, want exactly once",
					id, r, recvd[id], peer)
			}
		}
		for id := range recvd {
			if sent[id] == 0 {
				t.Errorf("rank %d dequeued msgid %#x that rank %d never enqueued", peer, id, r)
			}
		}
	}

	// The merged Chrome document must survive a decode round-trip with
	// per-rank lanes, monotone timestamps, and matched flow arrows.
	merged, err := tracing.MergeChrome([][]byte{
		tracing.ChromeTrace(trs[0].Events(), 0),
		tracing.ChromeTrace(trs[1].Events(), 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			PID int     `json:"pid"`
			TID int     `json:"tid"`
			TS  float64 `json:"ts"`
			ID  string  `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(merged, &doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	pids := map[int]bool{}
	lanes := map[[2]int]float64{}
	flowS := map[string]bool{}
	pairs := 0
	for _, e := range doc.TraceEvents {
		pids[e.PID] = true
		switch e.Ph {
		case "X":
			key := [2]int{e.PID, e.TID}
			if e.TS < lanes[key] {
				t.Fatalf("lane %v timestamps not monotone", key)
			}
			lanes[key] = e.TS
		case "s":
			flowS[e.ID] = true
		case "f":
			if flowS[e.ID] {
				pairs++
			}
		}
	}
	if !pids[0] || !pids[1] {
		t.Fatalf("merged trace missing a rank lane: %v", pids)
	}
	if pairs == 0 {
		t.Fatal("no send→recv flow-arrow pair in the merged trace")
	}
}
