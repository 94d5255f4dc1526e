package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	lci "lcigraph/internal/core"
	"lcigraph/internal/fabric"
	"lcigraph/internal/mpi"
)

// Fig. 1 microbenchmark: one-way latency and aggregate message rate between
// two hosts, for the paper's three receive disciplines:
//
//	no-probe — MPI_Isend / pre-posted MPI_Irecv with maximum-size buffers
//	probe    — MPI_Iprobe to learn the size, then exact MPI_Irecv
//	queue    — LCI SEND-ENQ / RECV-DEQ
const (
	IfaceNoProbe = "no-probe"
	IfaceProbe   = "probe"
	IfaceQueue   = "queue"
)

// Ifaces lists the Fig. 1 interfaces in paper order.
func Ifaces() []string { return []string{IfaceNoProbe, IfaceProbe, IfaceQueue} }

// MicroResult is one Fig. 1 data point.
type MicroResult struct {
	Iface   string
	Threads int
	Size    int
	Latency time.Duration // one-way latency (ping-pong / 2)
	RateMps float64       // messages per second (rate benchmark)
}

// maxMsg is the "maximum message size" buffer the no-probe discipline must
// pre-allocate because it cannot learn sizes in advance.
const maxMsg = 64 << 10

// MicroLatency measures one-way latency for iface at the given payload
// size using a ping-pong of iters round trips.
func MicroLatency(iface string, size, iters int, prof fabric.Profile, impl mpi.Impl) time.Duration {
	switch iface {
	case IfaceQueue:
		return lciPingPong(size, iters, prof)
	case IfaceNoProbe, IfaceProbe:
		return mpiPingPong(iface, size, iters, prof, impl)
	}
	panic("bench: unknown iface " + iface)
}

// lciPingPong progresses each endpoint inline from the goroutine that uses
// it, as mpiPingPong polls inline: with no separate Serve goroutines, a hop
// does not wait for a scheduler handoff on machines with few cores. Each
// endpoint is still progressed by exactly one goroutine.
func lciPingPong(size, iters int, prof fabric.Profile) time.Duration {
	fab := fabric.New(2, prof)
	a := lci.NewEndpoint(fab.Endpoint(0), lci.Options{})
	b := lci.NewEndpoint(fab.Endpoint(1), lci.Options{})
	wa, wb := a.Pool().RegisterWorker(), b.Pool().RegisterWorker()

	buf := make([]byte, size)
	poll := func(e *lci.Endpoint) {
		if !e.Progress() {
			runtime.Gosched()
		}
	}
	recvOne := func(e *lci.Endpoint) {
		for {
			if r, ok := e.RecvDeq(); ok {
				r.Wait(func() { e.Progress() })
				r.Release() // recycle the pooled wire frame
				return
			}
			poll(e)
		}
	}
	send := func(e *lci.Endpoint, w, dst int) {
		for {
			if r, ok := e.SendEnq(w, dst, 0, buf); ok {
				r.Wait(func() { e.Progress() })
				return
			}
			poll(e)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < iters; i++ {
			recvOne(b)
			send(b, wb, 0)
		}
	}()
	start := time.Now()
	for i := 0; i < iters; i++ {
		send(a, wa, 1)
		recvOne(a)
	}
	el := time.Since(start)
	<-done
	return el / time.Duration(2*iters)
}

func mpiPingPong(iface string, size, iters int, prof fabric.Profile, impl mpi.Impl) time.Duration {
	w := mpi.NewWorld(2, prof, impl, mpi.ThreadFunneled)
	a, b := w.Comm(0), w.Comm(1)
	buf := make([]byte, size)

	// The no-probe discipline pre-allocates its maximum-size buffer once;
	// its cost is memory and the inability to size receives, not a per-
	// message allocation.
	bigA := make([]byte, maxMsg)
	bigB := make([]byte, maxMsg)
	recvOne := func(c *mpi.Comm, big []byte) {
		switch iface {
		case IfaceNoProbe:
			if _, err := c.Recv(big, mpi.AnySource, mpi.AnyTag); err != nil {
				panic(err)
			}
		case IfaceProbe:
			var st mpi.Status
			for {
				var ok bool
				st, ok = c.Iprobe(mpi.AnySource, mpi.AnyTag)
				if ok {
					break
				}
				runtime.Gosched()
			}
			exact := make([]byte, st.Count)
			if _, err := c.Recv(exact, st.Source, st.Tag); err != nil {
				panic(err)
			}
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < iters; i++ {
			recvOne(b, bigB)
			if err := b.Send(buf, 0, 0); err != nil {
				panic(err)
			}
		}
	}()
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := a.Send(buf, 1, 0); err != nil {
			panic(err)
		}
		recvOne(a, bigA)
	}
	el := time.Since(start)
	<-done
	return el / time.Duration(2*iters)
}

// MicroRate measures the aggregate small-message rate with `threads`
// concurrent sender threads pushing perThread messages each to one
// receiving host.
func MicroRate(iface string, threads, perThread, size int, prof fabric.Profile, impl mpi.Impl) float64 {
	total := threads * perThread
	switch iface {
	case IfaceQueue:
		return lciRate(threads, perThread, size, total, prof)
	case IfaceNoProbe, IfaceProbe:
		return mpiRate(iface, threads, perThread, size, total, prof, impl)
	}
	panic("bench: unknown iface " + iface)
}

func lciRate(threads, perThread, size, total int, prof fabric.Profile) float64 {
	fab := fabric.New(2, prof)
	a := lci.NewEndpoint(fab.Endpoint(0), lci.Options{Workers: threads})
	b := lci.NewEndpoint(fab.Endpoint(1), lci.Options{})
	stop := make(chan struct{})
	defer close(stop)
	go a.Serve(stop)
	go b.Serve(stop)

	start := time.Now()
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := a.Pool().RegisterWorker()
			buf := make([]byte, size)
			for i := 0; i < perThread; i++ {
				for {
					if _, ok := a.SendEnq(w, 1, 0, buf); ok {
						break
					}
					runtime.Gosched()
				}
			}
		}()
	}
	var pending []*lci.Request
	got := 0
	for got < total {
		if r, ok := b.RecvDeq(); ok {
			if r.Done() {
				r.Release()
				got++
			} else {
				pending = append(pending, r)
			}
			continue
		}
		keep := pending[:0]
		for _, r := range pending {
			if r.Done() {
				r.Release()
				got++
			} else {
				keep = append(keep, r)
			}
		}
		pending = keep
		runtime.Gosched()
	}
	el := time.Since(start)
	wg.Wait()
	return float64(total) / el.Seconds()
}

func mpiRate(iface string, threads, perThread, size, total int, prof fabric.Profile, impl mpi.Impl) float64 {
	mode := mpi.ThreadFunneled
	if threads > 1 {
		mode = mpi.ThreadMultiple // concurrent senders force the global lock
	}
	w := mpi.NewWorld(2, prof, impl, mode)
	a, b := w.Comm(0), w.Comm(1)

	start := time.Now()
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, size)
			for i := 0; i < perThread; i++ {
				if err := a.Send(buf, 1, 0); err != nil {
					panic(err)
				}
			}
		}()
	}
	big := make([]byte, maxMsg)
	for got := 0; got < total; got++ {
		switch iface {
		case IfaceNoProbe:
			if _, err := b.Recv(big, mpi.AnySource, mpi.AnyTag); err != nil {
				panic(err)
			}
		case IfaceProbe:
			var st mpi.Status
			for {
				var ok bool
				st, ok = b.Iprobe(mpi.AnySource, mpi.AnyTag)
				if ok {
					break
				}
				runtime.Gosched()
			}
			exact := make([]byte, st.Count)
			if _, err := b.Recv(exact, st.Source, st.Tag); err != nil {
				panic(err)
			}
		}
	}
	el := time.Since(start)
	wg.Wait()
	return float64(total) / el.Seconds()
}

// Fig1 regenerates the Fig. 1 data: latency across sizes (single thread)
// and message rate across thread counts (8-byte messages).
func Fig1(sizes []int, threadCounts []int, iters int, prof fabric.Profile, impl mpi.Impl) []MicroResult {
	var out []MicroResult
	for _, iface := range Ifaces() {
		for _, s := range sizes {
			out = append(out, MicroResult{
				Iface: iface, Threads: 1, Size: s,
				Latency: MicroLatency(iface, s, iters, prof, impl),
			})
		}
		for _, tc := range threadCounts {
			out = append(out, MicroResult{
				Iface: iface, Threads: tc, Size: 8,
				RateMps: MicroRate(iface, tc, iters, 8, prof, impl),
			})
		}
	}
	return out
}

// FormatMicro renders Fig. 1 results as an aligned text table.
func FormatMicro(rs []MicroResult) string {
	s := fmt.Sprintf("%-10s %8s %8s %14s %14s\n", "iface", "threads", "size", "latency", "rate(msg/s)")
	for _, r := range rs {
		lat, rate := "-", "-"
		if r.Latency > 0 {
			lat = r.Latency.String()
		}
		if r.RateMps > 0 {
			rate = fmt.Sprintf("%.0f", r.RateMps)
		}
		s += fmt.Sprintf("%-10s %8d %8d %14s %14s\n", r.Iface, r.Threads, r.Size, lat, rate)
	}
	return s
}
