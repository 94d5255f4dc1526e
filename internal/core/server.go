package lci

import (
	"fmt"
	"runtime"
	"time"

	"lcigraph/internal/fabric"
	"lcigraph/internal/tracing"
)

// IdleBackoff yields for short idle streaks and sleeps for long ones, so
// idle progress loops do not monopolize low-core schedulers. It returns the
// updated idle counter (0 when work was done). The sleep asks for 20 µs but
// lasts about a millisecond when the P would otherwise be idle: Go's epoll
// netpoller rounds any sub-millisecond wait up to 1 ms (go1.24: a 20 µs
// time.Sleep at GOMAXPROCS=1 took p50 1.06 ms, p99 1.31 ms). The yields
// before it keep the run queue non-empty, so the scheduler does not check
// the netpoller and socket wake-ups wait.
//
// Who still backs off through it: the core Serve loop on a provider whose
// Poll has duties of its own (netfabric), or while work is parked; the
// probe layer's progress thread; and serve's loops on a layer with no
// doorbell. Serve on a parking provider (fabric.Parker) spends the yields
// and then parks where this would sleep; serve's loops and Gemini's
// receive loop park on the owner doorbell (Sharded.Arrivals).
func IdleBackoff(idle int, worked bool) int {
	if worked {
		return 0
	}
	idle++
	if idle < backoffYields {
		runtime.Gosched()
	} else {
		time.Sleep(20 * time.Microsecond)
	}
	return idle
}

// backoffYields is the idle count at which IdleBackoff stops yielding and
// sleeps.
const backoffYields = 64

// ParkBackstop bounds how long a parked progress loop (an idle Serve, or
// Gemini's receive loop after its compute threads finished) stays parked
// without a doorbell ring. Nothing should need it: every delivery, outbox
// push and pass that leaves work parked rings the server's bell, and every
// productive pass rings the owner's. It bounds the cost of a ring the loop
// did not see, and it keeps a parked server's poll counter moving for the
// health monitor (at least one pass per backstop).
const ParkBackstop = time.Millisecond

// ParkTimer parks a loop on a doorbell with a ParkBackstop timer. The zero
// value is ready: the timer is made on first use and kept stopped between
// parks. One goroutine uses it.
type ParkTimer struct{ t *time.Timer }

// Wait blocks until bell rings, stop closes or ParkBackstop passes. A nil
// stop never closes.
func (p *ParkTimer) Wait(bell, stop <-chan struct{}) {
	if p.t == nil {
		p.t = time.NewTimer(ParkBackstop)
	} else {
		p.t.Reset(ParkBackstop)
	}
	select {
	case <-bell:
	case <-stop:
	case <-p.t.C:
	}
	// Stop, and drop a fire that raced the wake-up, so the next Reset
	// starts clean.
	p.t.Stop()
	select {
	case <-p.t.C:
	default:
	}
}

// progressBatch bounds the frames handled per Progress call so one call
// cannot monopolize the server when the ring is deep.
const progressBatch = 64

// Progress runs one communication-server step (Algorithm 3): flush deferred
// operations, then drain the network in one batched ring pass and dispatch
// per-packet-type callbacks. Control frames (RTR, FRG, put completions) are
// recycled to the fabric pool as soon as their handler returns; data frames
// (EGR, RTS) travel through Q and are recycled by their consumers. It
// returns true if any work was done.
//
// Any goroutine may call it: the dedicated server (Serve) and owners that
// progress inline while they wait. One progress lock per endpoint serializes
// the passes; a caller that finds it held returns false at once, since the
// holder's pass does the same work. A pass that did work rings the
// provider's doorbell (fabric.Doorbell) after releasing the lock, so an
// owner that lost the lock, or parked while this pass moved its messages
// into Q, looks again.
func (e *Endpoint) Progress() bool {
	if !e.progMu.TryLock() {
		return false
	}
	return e.progressUnlock()
}

// progressUnlock runs one pass with the progress lock held, releases it and
// rings the owner doorbell if the pass did work. On a parking provider a
// pass that leaves work parked also rings the provider's doorbell: the
// pass may have been an owner's, made while the server was parked.
func (e *Endpoint) progressUnlock() bool {
	worked := e.progressLocked()
	parked := e.park && e.hasParkedWork()
	e.progMu.Unlock()
	if worked && e.owner != nil {
		e.owner.Ring()
	}
	if parked {
		e.bell.Ring()
	}
	return worked
}

// progressLocked is one Progress pass. Progress lock held.
func (e *Endpoint) progressLocked() bool {
	e.ps.seq++
	if e.m.progressIter != nil && e.ps.seq&progressSampleMask == 0 {
		t0 := time.Now()
		worked := e.progressStep()
		e.m.progressIter.Observe(time.Since(t0).Nanoseconds())
		e.m.countPoll(worked)
		e.m.flushPolls()
		e.notePoll(worked)
		return worked
	}
	worked := e.progressStep()
	e.m.countPoll(worked)
	e.notePoll(worked)
	return worked
}

// emptyPollStallStreak is the consecutive-empty-poll count at which the
// progress server declares itself stalled — but only while work is parked
// (outbox items refused by the fabric, stashed frames the consumers never
// drain, fragment jobs that cannot advance). Serve never parks while work
// is parked, so then it backs off through IdleBackoff on every provider:
// past the knee each empty poll sleeps about 1 ms, and 1<<16 empty polls is
// about a minute of continuous starvation when only Serve polls. Owners
// that progress inline while they spin (Exchange's receive wait) poll
// without sleeping and fill the streak sooner. stallPoll extends
// netfabric's stall kinds (1=ack, 2=credit) in the EvStallWarn arg.
const (
	emptyPollStallStreak = 1 << 16
	stallPoll            = 3
)

// notePoll records progress-server busy/idle *transitions* (not every poll:
// a spinning server polls millions of times a second, and the edges are what
// a timeline needs — the busy event's arg carries the length of the idle
// streak it ended). Progress lock held.
func (e *Endpoint) notePoll(worked bool) {
	if e.tr == nil {
		return
	}
	if worked {
		if !e.ps.wasBusy {
			e.tr.RecordArg(tracing.EvProgressBusy, -1, tracing.ProtoNone, 0, e.ps.idleStreak, 0)
			e.ps.wasBusy = true
		}
		e.ps.idleStreak = 0
	} else {
		e.ps.idleStreak++
		if e.ps.wasBusy {
			e.tr.Record(tracing.EvProgressIdle, -1, tracing.ProtoNone, 0, 0)
			e.ps.wasBusy = false
		}
		// Empty-poll stall: the streak threshold fires exactly once per idle
		// episode (any productive poll resets the streak and re-arms it), and
		// only when there is parked work that polling should be moving —
		// ordinary quiescence between supersteps idles forever without this.
		// Each shard latches independently: the streak and the parked work it
		// inspects are both per-shard state.
		if e.ps.idleStreak == emptyPollStallStreak && e.hasParkedWork() {
			e.tr.RecordArg(tracing.EvStallWarn, -1, tracing.ProtoNone, 0, stallPoll, 0)
			e.tr.DumpNow(fmt.Sprintf("rank %d shard %d/%d progress: %d consecutive empty polls with parked work (outbox=%v stash=%d frags=%d)",
				e.rank, e.shardIdx, e.shardTotal, e.ps.idleStreak, e.outBlocked, len(e.stash), len(e.frags)))
		}
	}
}

// hasParkedWork reports whether the server is sitting on deferred work that
// an empty poll failed to advance. Progress lock held.
func (e *Endpoint) hasParkedWork() bool {
	return e.outBlocked || len(e.stash) > 0 || len(e.frags) > 0
}

func (e *Endpoint) progressStep() bool {
	worked := e.flushOutbox()
	if e.pumpFragments() {
		worked = true
	}

	// Re-offer stashed frames first; if Q is still full, polling more would
	// only grow the stash, so stall (back-pressure propagates to senders
	// through the fabric ring).
	for len(e.stash) > 0 {
		if !e.q.Enqueue(e.stash[0]) {
			return worked
		}
		copy(e.stash, e.stash[1:])
		e.stash[len(e.stash)-1] = nil
		e.stash = e.stash[:len(e.stash)-1]
		worked = true
	}

	// The batch buffer is endpoint-owned: a local array would escape
	// through the PollBatch interface call and cost an allocation per pass.
	// Per-protocol RX tallies accumulate in locals and flush to the
	// registry once per batch, keeping the per-frame dispatch cost at a
	// register increment.
	var rxEgr, rxRts, rxRtr, rxFrg, rxPut int64
	batch := e.batch[:]
	n := e.fep.PollBatch(batch)
	for _, f := range batch[:n] {
		switch {
		case f.Kind == fabric.KindPutDone:
			rxPut++
			e.completePut(f)
			f.Release()
		default:
			switch headerType(f.Header) {
			case EGR, RTS:
				if headerType(f.Header) == EGR {
					rxEgr++
				} else {
					rxRts++
				}
				if !e.q.Enqueue(f) {
					e.stash = append(e.stash, f)
				}
			case RTR:
				rxRtr++
				e.handleRTR(f)
				f.Release()
			case FRG:
				rxFrg++
				e.handleFragment(f)
				f.Release()
			default:
				panic(fmt.Sprintf("lci: unknown packet type %d", headerType(f.Header)))
			}
		}
	}
	clear(batch[:n]) // drop the frame references; consumers own them now
	if rxEgr > 0 {
		e.m.rxEGR.Add(rxEgr)
	}
	if rxRts > 0 {
		e.m.rxRTS.Add(rxRts)
	}
	if rxRtr > 0 {
		e.m.rxRTR.Add(rxRtr)
	}
	if rxFrg > 0 {
		e.m.rxFRG.Add(rxFrg)
	}
	if rxPut > 0 {
		e.m.rxPutDone.Add(rxPut)
	}
	return worked || n > 0
}

// flushOutbox retries operations the fabric refused earlier. A destination
// that answers ErrResource is marked blocked for the rest of the round and
// its items re-parked, but flushing continues for other destinations — one
// congested peer must not starve deferred sends elsewhere. Per-destination
// FIFO order is preserved: once a destination blocks, its later items are
// re-parked unattempted.
func (e *Endpoint) flushOutbox() bool {
	worked := false
	blocked := e.outScratch[:0]
	if e.blockedDst == nil {
		e.blockedDst = make(map[int]bool)
	} else {
		clear(e.blockedDst)
	}
	// MPSC has no O(1) length; bound by a fixed number of pops so re-pushed
	// items do not spin. In practice the outbox is short.
	for tries := 0; tries < progressBatch; tries++ {
		it, ok := e.out.Pop()
		if !ok {
			break
		}
		dst := it.dst
		if it.kind == outPacket {
			dst = it.pkt.dst
		}
		if e.blockedDst[dst] {
			blocked = append(blocked, it)
			continue
		}
		var err error
		switch it.kind {
		case outPacket:
			err = e.fep.Send(it.pkt.dst, it.pkt.header, it.pkt.meta, it.pkt.payload())
			if err == nil {
				if e.tr != nil && it.pkt.mid != 0 {
					gid := tracing.MsgID(e.rank, it.pkt.mid)
					ev, proto := tracing.EvEagerTx, tracing.ProtoEGR
					if it.pkt.ptype == RTS {
						ev, proto = tracing.EvRTSTx, tracing.ProtoRTS
					}
					e.tr.Record(ev, it.pkt.dst, proto, it.pkt.n, gid)
				}
				if it.pkt.ptype == EGR {
					e.observeEagerLatency(it.pkt.t0)
					e.pool.Free(e.serverWorker, it.pkt)
				}
				// RTS packets stay allocated until the rendezvous completes.
				worked = true
				continue
			}
		case outCtrl:
			err = e.fep.Send(it.dst, it.header, it.meta, nil)
			if err == nil {
				// The only deferred control frame today is the RTR answer.
				if e.tr != nil {
					if mid := headerMID(it.header); mid != 0 {
						e.tr.Record(tracing.EvRTRTx, it.dst, tracing.ProtoRTR, 0, tracing.MsgID(it.dst, mid))
					}
				}
				worked = true
				continue
			}
		case outPut:
			err = e.fep.Put(it.dst, it.rkey, 0, it.src, it.imm)
			if err == nil {
				if e.tr != nil {
					e.tr.Record(tracing.EvPutTx, it.dst, tracing.ProtoRTR, len(it.src), e.sends.get(it.sendID).req.MsgID)
				}
				e.finishSend(it.sendID)
				worked = true
				continue
			}
		}
		if err != fabric.ErrResource {
			panic(fmt.Sprintf("lci: outbox flush: %v", err))
		}
		e.blockedDst[dst] = true
		blocked = append(blocked, it)
	}
	e.outBlocked = len(blocked) > 0
	for i, it := range blocked {
		e.out.Push(it)
		blocked[i] = outItem{}
	}
	e.outScratch = blocked[:0]
	return worked
}

// handleRTR is the RTR callback: the receiver is ready, so issue the RDMA
// put straight from the user's source buffer — or, on an RDMA-less
// transport, start streaming FRG fragments.
func (e *Endpoint) handleRTR(f *fabric.Frame) {
	// Meta hi is our own sid: strip the shard bits to index the slot table.
	// recvID is the receiver's encoded rid and is echoed back opaquely (in
	// the put immediate or on FRG headers) — its shard bits are what route
	// the completion to the right shard over there.
	sid, rkey := metaHi(f.Meta)&slotMask, metaLo(f.Meta)
	recvID := headerTag(f.Header)
	p := e.sends.get(sid)
	if p.req == nil {
		panic("lci: RTR for unknown send request")
	}
	if e.tr != nil {
		e.tr.Record(tracing.EvRTRRx, f.Src, tracing.ProtoRTR, len(p.src), p.req.MsgID)
	}
	if !e.fep.HasRDMA() {
		if e.tr != nil {
			e.tr.Record(tracing.EvFrgStart, f.Src, tracing.ProtoFRG, len(p.src), p.req.MsgID)
		}
		e.frags = append(e.frags, &fragJob{dst: f.Src, recvID: recvID, sendID: sid, src: p.src, mid: headerMID(f.Header)})
		return
	}
	if err := e.fep.Put(f.Src, rkey, 0, p.src, uint64(recvID)); err != nil {
		if err != fabric.ErrResource {
			panic(fmt.Sprintf("lci: put: %v", err))
		}
		e.deferOp(outItem{kind: outPut, dst: f.Src, rkey: rkey, src: p.src, imm: uint64(recvID), sendID: sid})
		return
	}
	if e.tr != nil {
		e.tr.Record(tracing.EvPutTx, f.Src, tracing.ProtoRTR, len(p.src), p.req.MsgID)
	}
	e.finishSend(sid)
}

// pumpFragments advances in-progress fragmented sends, respecting
// back-pressure. A job completes the sender request once its last chunk is
// accepted (the fabric copies payloads on injection).
func (e *Endpoint) pumpFragments() bool {
	if len(e.frags) == 0 {
		return false
	}
	worked := false
	keep := e.frags[:0]
	var sent int64
	for _, j := range e.frags {
		for j.off < len(j.src) {
			chunk := j.src[j.off:]
			if len(chunk) > e.eagerLimit {
				chunk = chunk[:e.eagerLimit]
			}
			err := e.fep.Send(j.dst, packHeader(FRG, j.recvID, j.mid), uint64(j.off), chunk)
			if err == fabric.ErrResource {
				break
			}
			if err != nil {
				panic(fmt.Sprintf("lci: fragment send: %v", err))
			}
			j.off += len(chunk)
			sent++
			worked = true
		}
		if j.off < len(j.src) {
			keep = append(keep, j)
		} else {
			e.finishSend(j.sendID)
		}
	}
	e.frags = keep
	if sent > 0 {
		e.m.txFRG.Add(sent)
	}
	return worked
}

// handleFragment is the FRG callback on the receive side: copy the chunk
// into the pending rendezvous buffer and complete on the last byte.
func (e *Endpoint) handleFragment(f *fabric.Frame) {
	rid := headerTag(f.Header) & slotMask
	p := e.recvs.get(rid)
	if p == nil || p.req == nil {
		panic("lci: fragment for unknown recv request")
	}
	off := int(f.Meta)
	copy(p.req.Data[off:], f.Data)
	p.got += len(f.Data)
	if e.tr != nil {
		e.tr.RecordArg(tracing.EvFrgRx, f.Src, tracing.ProtoFRG, len(f.Data), uint32(off), p.req.MsgID)
	}
	if p.got >= p.req.Size {
		if e.tr != nil {
			e.tr.RecordArg(tracing.EvComplete, f.Src, tracing.ProtoFRG, p.req.Size, 2, p.req.MsgID)
		}
		req := p.req
		e.recvs.release(rid)
		req.markDone()
	}
}

// finishSend completes a rendezvous send after its put landed. The RTS
// packet and the slot go back before the request completes, so a sender
// that saw completion finds both free.
func (e *Endpoint) finishSend(sid uint32) {
	p := e.sends.get(sid)
	if e.tr != nil {
		e.tr.RecordArg(tracing.EvComplete, p.req.Rank, tracing.ProtoRTS, p.req.Size, 1, p.req.MsgID)
	}
	req := p.req
	e.pool.Free(e.serverWorker, p.pkt)
	e.sends.release(sid)
	req.markDone()
}

// completePut is the RDMA-completion callback: the receiver's buffer is now
// filled; finish the receive request.
func (e *Endpoint) completePut(f *fabric.Frame) {
	rid := uint32(f.Header) & slotMask
	p := e.recvs.get(rid)
	if p == nil || p.req == nil {
		panic("lci: put completion for unknown recv request")
	}
	e.fep.DeregisterRegion(p.rkey)
	if e.tr != nil {
		e.tr.RecordArg(tracing.EvComplete, f.Src, tracing.ProtoRTS, p.req.Size, 2, p.req.MsgID)
	}
	req := p.req
	e.recvs.release(rid)
	req.markDone()
}

// Serve drives Progress in a loop until stop is closed. It yields (and,
// after long idle streaks, sleeps) so co-located hosts make progress; a
// real deployment pins the server thread and spins.
//
// On a parking provider (fabric.Parker) an idle server parks where
// IdleBackoff would sleep: once its yields are spent and no work is parked
// (outbox, stash, fragments), it blocks on the provider's doorbell, stop
// and a ParkBackstop timer. The server is never skipped: it is what
// completes a rendezvous or fragmented send whose sender stopped polling.
func (e *Endpoint) Serve(stop <-chan struct{}) {
	idle := 0
	start := time.Now()
	var parked ParkTimer
	for {
		select {
		case <-stop:
			return
		default:
		}
		if e.injectStall != nil {
			e.maybeInjectStall(start, stop)
		}
		worked := e.Progress()
		if !worked && e.park && idle+1 >= backoffYields && e.readyToPark() {
			e.m.parks.Inc()
			parked.Wait(e.bell.Arrivals(), stop)
			continue
		}
		idle = IdleBackoff(idle, worked)
	}
}

// readyToPark reports whether no pass is running and none left work parked.
// It publishes the poll tallies first, so a parked server's poll counter
// still advances once per backstop.
func (e *Endpoint) readyToPark() bool {
	if !e.progMu.TryLock() {
		return false
	}
	ok := !e.hasParkedWork()
	if ok {
		e.m.flushPolls()
	}
	e.progMu.Unlock()
	return ok
}

// Drain progresses until the outbox is empty and no frames are pending, for
// orderly shutdown in tests. Unlike Progress it waits for the lock, so a
// concurrent pass cannot end the drain early.
func (e *Endpoint) Drain() {
	for e.progressWait() {
	}
}

// progressWait is Progress that waits for the lock instead of giving up.
func (e *Endpoint) progressWait() bool {
	e.progMu.Lock()
	return e.progressUnlock()
}
