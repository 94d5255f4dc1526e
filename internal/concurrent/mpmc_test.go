package concurrent

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestMPMCBasic(t *testing.T) {
	q := NewMPMC[int](4)
	if q.Cap() != 4 {
		t.Fatalf("cap = %d, want 4", q.Cap())
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("dequeue on empty queue succeeded")
	}
	for i := 0; i < 4; i++ {
		if !q.Enqueue(i) {
			t.Fatalf("enqueue %d failed on non-full queue", i)
		}
	}
	if q.Enqueue(99) {
		t.Fatal("enqueue succeeded on full queue")
	}
	for i := 0; i < 4; i++ {
		v, ok := q.Dequeue()
		if !ok || v != i {
			t.Fatalf("dequeue = %d,%v want %d,true", v, ok, i)
		}
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("dequeue succeeded on drained queue")
	}
}

func TestMPMCCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {1000, 1024},
	} {
		if got := NewMPMC[int](tc.in).Cap(); got != tc.want {
			t.Errorf("NewMPMC(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestMPMCWrapAround(t *testing.T) {
	q := NewMPMC[int](2)
	for lap := 0; lap < 1000; lap++ {
		if !q.Enqueue(lap) {
			t.Fatalf("lap %d: enqueue failed", lap)
		}
		v, ok := q.Dequeue()
		if !ok || v != lap {
			t.Fatalf("lap %d: dequeue = %d,%v", lap, v, ok)
		}
	}
}

// TestMPMCNoLossNoDup hammers the queue with concurrent producers and
// consumers and checks every value is delivered exactly once.
func TestMPMCNoLossNoDup(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 5000
	)
	q := NewMPMC[int](64)
	var wg sync.WaitGroup
	results := make(chan int, producers*perProd)

	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v, ok := q.Dequeue()
				if !ok {
					runtime.Gosched()
					continue
				}
				if v < 0 {
					return
				}
				results <- v
			}
		}()
	}
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for i := 0; i < perProd; i++ {
				v := p*perProd + i
				for !q.Enqueue(v) {
					runtime.Gosched()
				}
			}
		}(p)
	}
	pwg.Wait()
	for c := 0; c < consumers; c++ {
		for !q.Enqueue(-1) {
			runtime.Gosched()
		}
	}
	wg.Wait()
	close(results)

	seen := make([]bool, producers*perProd)
	n := 0
	for v := range results {
		if seen[v] {
			t.Fatalf("value %d delivered twice", v)
		}
		seen[v] = true
		n++
	}
	if n != producers*perProd {
		t.Fatalf("delivered %d values, want %d", n, producers*perProd)
	}
}

// TestMPMCFIFOSingleThreaded checks FIFO order property for arbitrary
// operation sequences using testing/quick.
func TestMPMCFIFOSingleThreaded(t *testing.T) {
	f := func(ops []bool, vals []int) bool {
		q := NewMPMC[int](8)
		var model []int
		vi := 0
		for _, enq := range ops {
			if enq {
				v := 0
				if vi < len(vals) {
					v = vals[vi]
					vi++
				}
				ok := q.Enqueue(v)
				if ok != (len(model) < q.Cap()) {
					return false
				}
				if ok {
					model = append(model, v)
				}
			} else {
				v, ok := q.Dequeue()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMPSCBasic(t *testing.T) {
	q := NewMPSC[string]()
	if !q.Empty() {
		t.Fatal("new queue not empty")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop on empty queue succeeded")
	}
	q.Push("a")
	q.Push("b")
	if q.Empty() {
		t.Fatal("queue with elements reports empty")
	}
	if v, ok := q.Pop(); !ok || v != "a" {
		t.Fatalf("pop = %q,%v", v, ok)
	}
	if v, ok := q.Pop(); !ok || v != "b" {
		t.Fatalf("pop = %q,%v", v, ok)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop succeeded on drained queue")
	}
}

// TestMPSCConcurrent checks no loss / no duplication with several producers
// and one consumer, and per-producer FIFO order.
func TestMPSCConcurrent(t *testing.T) {
	const (
		producers = 8
		perProd   = 4000
	)
	q := NewMPSC[[2]int]() // [producer, seq]
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for i := 0; i < perProd; i++ {
				q.Push([2]int{p, i})
			}
		}(p)
	}
	done := make(chan struct{})
	go func() {
		pwg.Wait()
		close(done)
	}()

	next := make([]int, producers)
	got := 0
	for got < producers*perProd {
		v, ok := q.Pop()
		if !ok {
			runtime.Gosched()
			select {
			case <-done:
				// Producers finished; drain whatever remains.
				if v, ok = q.Pop(); !ok {
					if got != producers*perProd {
						t.Fatalf("drained early: got %d", got)
					}
					break
				}
			default:
				continue
			}
		}
		p, seq := v[0], v[1]
		if seq != next[p] {
			t.Fatalf("producer %d out of order: got seq %d want %d", p, seq, next[p])
		}
		next[p]++
		got++
	}
}

func BenchmarkMPMCEnqDeq(b *testing.B) {
	q := NewMPMC[int](1024)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			for !q.Enqueue(1) {
				if _, ok := q.Dequeue(); !ok {
					break
				}
			}
			q.Dequeue()
		}
	})
}

func BenchmarkMPSCPushPop(b *testing.B) {
	q := NewMPSC[int]()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q.Push(1)
			q.Pop()
		}
	})
}
